"""Exact sparse Laurent-polynomial arithmetic modulo p and modulo p**2.

A polynomial is a finite map {exponent vector -> nonzero residue}.  Exponent
vectors follow the variable order of a VarSpec; negative exponents are legal
only on variables the VarSpec marks as inverted (localization data).  The
`modulus` field is either an odd prime p (ordinary chart functions) or p**2
(functions on the mod-p**2 thickening of a chart).

The zero polynomial is the empty map.  Equality is structural.  Canonical
term order for text emission is graded lex, largest first: `2*s^4 + s^2`.

The public constructors `LaurentPoly(...)` and `PolyMatrix(...)` validate
their input: exponent lengths, negative exponents only on inverted variables,
one ring for all matrix entries.  Same-ring arithmetic (`+ - *`, negation,
`deriv`, `frobenius`, matrix `@`, `scale` and the connection step `nabla`)
keeps those invariants by construction, so it checks the operands' ring once
per call and builds its result with the trusted `_make` constructors, which
only reduce mod m and drop zeros.  So are the constants (`zero`, `const`,
`one`, matrix `zero` and `identity`), which check only the modulus and the
shape.  Operations that
change the ring (`subst`, `extend_vars`, `reduce_mod`, `map_entries`) go
through the validating constructors.
`VarSpec.make` and `with_inverted` intern one VarSpec per (names, inverted),
so the ring check is usually an identity test; a directly built VarSpec still
compares equal.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cache
from operator import add
from typing import Iterable, Mapping


class RingError(ValueError):
    """Base class for arithmetic-level failures."""


class NotDivisibleError(RingError):
    """A coefficient that had to be divisible by p was not."""


class NotAUnitError(RingError):
    """An element that had to be invertible is not of unit shape."""


class NilpotencyError(RingError):
    """A matrix violated a required nilpotency bound."""


class SubstitutionError(RingError):
    """A substitution could not be carried out on the given variables."""


class ParseError(RingError):
    """A polynomial string did not match the text syntax."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@cache
def char_of_modulus(m: int) -> tuple[int, int]:
    """Return (p, level) where m == p**level, level in {1, 2}."""
    if is_prime(m):
        return m, 1
    r = math.isqrt(m)
    if r * r == m and is_prime(r):
        return r, 2
    raise RingError(f"modulus {m} is neither a prime nor a prime square")


class PrimeContext:
    """An odd prime p with the inverse-factorial table and Wilson residue."""

    def __init__(self, p: int):
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise RingError(f"characteristic must be an odd prime >= 3, got {p}")
        self.p = p
        facts = [1]
        for i in range(1, p):
            facts.append(facts[-1] * i % p)
        self.inv_factorials = tuple(pow(f, p - 2, p) for f in facts)
        self.wilson = facts[-1]
        assert self.wilson == p - 1  # Wilson: (p-1)! = -1 mod p
        for i, f in enumerate(facts):
            assert f * self.inv_factorials[i] % p == 1

    @property
    def p2(self) -> int:
        return self.p * self.p

    def __repr__(self) -> str:
        return f"PrimeContext(p={self.p})"


@dataclass(frozen=True)
class VarSpec:
    """Ordered coordinate names plus the subset allowing negative exponents."""

    names: tuple[str, ...]
    inverted: frozenset[str] = frozenset()

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise RingError(f"duplicate variable names in {self.names}")
        if not self.inverted <= set(self.names):
            raise RingError(f"inverted set {set(self.inverted)} not a subset of {self.names}")

    @classmethod
    def make(cls, names: Iterable[str], inverted: Iterable[str] = ()) -> "VarSpec":
        """The interned VarSpec for (names, inverted): one instance per key."""
        key = (tuple(names), frozenset(inverted))
        spec = _INTERNED.get(key)
        if spec is None:
            spec = _INTERNED[key] = cls(*key)
        return spec

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise RingError(f"unknown variable {name!r} (have {self.names})") from None

    def allows_negative(self, name: str) -> bool:
        return name in self.inverted

    def with_inverted(self, extra: Iterable[str]) -> "VarSpec":
        return VarSpec.make(self.names, self.inverted | frozenset(extra))


_INTERNED: dict[tuple[tuple[str, ...], frozenset[str]], VarSpec] = {}


def _same_ring(a, b) -> bool:
    """a and b (polynomials or matrices) share one VarSpec and modulus."""
    return (a.vars is b.vars or a.vars == b.vars) and a.modulus == b.modulus


def _check_ring(a, b) -> None:
    if not _same_ring(a, b):
        raise RingError("operands live in different rings")


def _term_sort_key(exps: tuple[int, ...]) -> tuple:
    # graded lex, used descending for canonical emission
    return (sum(exps), exps)


def monomial_sort_key(exps: tuple[int, ...]) -> tuple:
    """Ascending 'simple first' order used for solver bases: by total |degree|."""
    return (sum(abs(e) for e in exps), exps)


class LaurentPoly:
    """Sparse Laurent polynomial over Z/modulus on a fixed VarSpec."""

    __slots__ = ("vars", "modulus", "terms")

    def __init__(self, vars: VarSpec, modulus: int, terms: Mapping[tuple[int, ...], int]):
        if modulus < 2:
            raise RingError(f"bad modulus {modulus}")
        clean: dict[tuple[int, ...], int] = {}
        n = vars.arity
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != n:
                raise RingError(f"exponent vector {exps} has wrong length for {vars.names}")
            c = coeff % modulus
            if c == 0:
                continue
            for name, e in zip(vars.names, exps):
                if e < 0 and not vars.allows_negative(name):
                    raise RingError(
                        f"negative exponent on non-inverted variable {name!r} in term {exps}"
                    )
            clean[exps] = c
        self.vars = vars
        self.modulus = modulus
        self.terms = clean

    @staticmethod
    def _make(vars: VarSpec, modulus: int, terms: dict[tuple[int, ...], int]) -> "LaurentPoly":
        """Trusted constructor for same-ring results: reduce mod m, drop zeros.

        The exponent vectors must already be valid for vars.
        """
        self = object.__new__(LaurentPoly)
        self.vars = vars
        self.modulus = modulus
        self.terms = {e: r for e, c in terms.items() if (r := c % modulus)}
        return self

    # ---------- constructors ----------

    @classmethod
    def zero(cls, vars: VarSpec, modulus: int) -> "LaurentPoly":
        return cls.const(vars, modulus, 0)

    @classmethod
    def const(cls, vars: VarSpec, modulus: int, c: int) -> "LaurentPoly":
        if modulus < 2:
            raise RingError(f"bad modulus {modulus}")
        return LaurentPoly._make(vars, modulus, {(0,) * vars.arity: c})

    @classmethod
    def one(cls, vars: VarSpec, modulus: int) -> "LaurentPoly":
        return cls.const(vars, modulus, 1)

    @classmethod
    def var(cls, vars: VarSpec, modulus: int, name: str, exp: int = 1) -> "LaurentPoly":
        exps = [0] * vars.arity
        exps[vars.index(name)] = exp
        return cls(vars, modulus, {tuple(exps): 1})

    @classmethod
    def monomial(cls, vars: VarSpec, modulus: int, coeff: int, exps: Iterable[int]) -> "LaurentPoly":
        return cls(vars, modulus, {tuple(exps): coeff})

    # ---------- predicates ----------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.vars.arity: 1}

    def is_unit(self) -> bool:
        """Unit of the Laurent ring: a single term c*t^e with all e-support inverted."""
        if len(self.terms) != 1:
            return False
        (exps, coeff), = self.terms.items()
        p, _ = char_of_modulus(self.modulus)
        if coeff % p == 0:
            return False
        return all(
            e == 0 or self.vars.allows_negative(name)
            for name, e in zip(self.vars.names, exps)
        )

    def max_abs_degree(self) -> int:
        if not self.terms:
            return 0
        return max(max(abs(e) for e in exps) if exps else 0 for exps in self.terms)

    # ---------- ring operations ----------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_ring(self, other)
        return LaurentPoly._make(self.vars, self.modulus, _sum_terms(self.terms, other.terms, 1))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_ring(self, other)
        return LaurentPoly._make(self.vars, self.modulus, _sum_terms(self.terms, other.terms, -1))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._make(self.vars, self.modulus, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly._make(self.vars, self.modulus, {e: c * other for e, c in self.terms.items()})
        _check_ring(self, other)
        return LaurentPoly._make(self.vars, self.modulus, _product_terms({}, self.terms, other.terms))

    def __rmul__(self, other: int) -> "LaurentPoly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            return invert_poly(self) ** (-n)
        result = LaurentPoly._make(self.vars, self.modulus, {(0,) * self.vars.arity: 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and _same_ring(self, other)
            and self.terms == other.terms
        )

    __hash__ = None  # mutable dict inside; structural equality only

    # ---------- derivations and semilinear maps ----------

    def deriv(self, name: str) -> "LaurentPoly":
        """Partial derivative; obeys Leibniz including negative exponents."""
        i = self.vars.index(name)
        return LaurentPoly._make(self.vars, self.modulus, _deriv_terms(self.terms, i))

    def frobenius(self) -> "LaurentPoly":
        """g -> g^p, term-wise since coefficients in F_p are Frobenius-fixed."""
        p, level = char_of_modulus(self.modulus)
        if level != 1:
            raise RingError("frobenius is only defined on mod-p polynomials")
        return LaurentPoly._make(
            self.vars, self.modulus,
            {tuple(p * e for e in exps): c for exps, c in self.terms.items()},
        )

    def reduce_mod(self, modulus: int) -> "LaurentPoly":
        if self.modulus % modulus != 0:
            raise RingError(f"cannot reduce modulo {modulus} from {self.modulus}")
        return LaurentPoly(self.vars, modulus, dict(self.terms))

    def extend_vars(self, target: VarSpec) -> "LaurentPoly":
        """Move to a VarSpec with the same names but possibly more inversions."""
        if target.names != self.vars.names:
            raise RingError("extend_vars requires identical variable names")
        return LaurentPoly(target, self.modulus, dict(self.terms))

    def subst(self, images: Mapping[str, "LaurentPoly"], target: VarSpec) -> "LaurentPoly":
        """Substitute each variable by its image polynomial over target vars.

        Variables without an explicit image must exist in target under the
        same name (identity substitution).  Negative powers invert the image,
        which must be a unit of the target ring.
        """
        cache: dict[tuple[str, int], LaurentPoly] = {}

        def image_power(name: str, e: int) -> LaurentPoly:
            key = (name, e)
            if key in cache:
                return cache[key]
            if name in images:
                img = images[name]
                if img.vars != target or img.modulus != self.modulus:
                    raise SubstitutionError(
                        f"image of {name!r} lives in the wrong ring for this substitution"
                    )
            else:
                if name not in target.names:
                    raise SubstitutionError(f"no image for variable {name!r}")
                img = LaurentPoly.var(target, self.modulus, name)
            try:
                val = img ** e
            except RingError as exc:
                raise SubstitutionError(f"substituting {name!r}^{e}: {exc}") from exc
            cache[key] = val
            return val

        out = LaurentPoly.zero(target, self.modulus)
        for exps, c in self.terms.items():
            term = LaurentPoly.const(target, self.modulus, c)
            for name, e in zip(self.vars.names, exps):
                if e != 0:
                    term = term * image_power(name, e)
            out = out + term
        return out

    # ---------- text form ----------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.vars.names, exps):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<{self} (mod {self.modulus})>"

    @classmethod
    def parse(cls, text: str, vars: VarSpec, modulus: int) -> "LaurentPoly":
        return _parse_poly(text, vars, modulus)


def _sum_terms(a: dict, b: dict, sign: int) -> dict:
    """The unreduced terms of a + sign*b."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return out


def _deriv_terms(terms: dict, i: int) -> dict:
    """The unreduced terms of the partial derivative along variable i."""
    # lowering exponent i is injective, so no two terms meet
    return {
        exps[:i] + (e - 1,) + exps[i + 1:]: c * e
        for exps, c in terms.items() if (e := exps[i])
    }


def _product_terms(out: dict, a: dict, b: dict) -> dict:
    """Accumulate the unreduced terms of a*b into out."""
    get = out.get
    b_items = b.items()
    for ea, ca in a.items():
        for eb, cb in b_items:
            e = tuple(map(add, ea, eb))
            out[e] = get(e, 0) + ca * cb
    return out


_TOKEN_RE = re.compile(r"\s*(?:(?P<int>-?\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[\^*+-]))")


def _parse_poly(text: str, vars: VarSpec, modulus: int) -> LaurentPoly:
    """Parse the documented syntax: signed integer coefficients, `*`, `^`."""
    pos = 0
    tokens: list[tuple[str, str]] = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"bad token at {text[pos:pos + 10]!r} in polynomial {text!r}")
        pos = m.end()
        for kind in ("int", "name", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val))
                break
    if text.strip() == "":
        raise ParseError("empty polynomial string")

    result = LaurentPoly.zero(vars, modulus)
    i = 0

    def parse_factor():
        nonlocal i
        if i >= len(tokens):
            raise ParseError(f"unexpected end of polynomial {text!r}")
        kind, val = tokens[i]
        if kind == "int":
            i += 1
            return LaurentPoly.const(vars, modulus, int(val))
        if kind == "name":
            if val not in vars.names:
                raise ParseError(f"unknown variable {val!r} in polynomial {text!r}")
            i += 1
            exp = 1
            if i < len(tokens) and tokens[i] == ("op", "^"):
                i += 1
                if i < len(tokens) and tokens[i][0] == "int":
                    exp = int(tokens[i][1])
                    i += 1
                elif i + 1 < len(tokens) and tokens[i] == ("op", "-") and tokens[i + 1][0] == "int":
                    exp = -int(tokens[i + 1][1])
                    i += 2
                else:
                    raise ParseError(f"expected integer exponent after '^' in {text!r}")
            if exp < 0 and not vars.allows_negative(val):
                raise ParseError(
                    f"negative exponent on non-inverted variable {val!r} in {text!r}"
                )
            return LaurentPoly.var(vars, modulus, val, exp)
        raise ParseError(f"unexpected token {val!r} in polynomial {text!r}")

    def parse_term():
        nonlocal i
        term = parse_factor()
        while i < len(tokens) and tokens[i] == ("op", "*"):
            i += 1
            term = term * parse_factor()
        return term

    sign = 1
    if i < len(tokens) and tokens[i] == ("op", "-"):
        sign = -1
        i += 1
    elif i < len(tokens) and tokens[i] == ("op", "+"):
        i += 1
    result = result + parse_term() * sign
    while i < len(tokens):
        kind, val = tokens[i]
        if (kind, val) == ("op", "+"):
            sign = 1
        elif (kind, val) == ("op", "-"):
            sign = -1
        elif kind == "int" and val.startswith("-"):
            # "a -3*t" style: negative integer literal acts as separator+coeff
            tokens[i] = ("int", val[1:])
            sign = -1
            result = result + parse_term() * sign
            continue
        else:
            raise ParseError(f"expected '+' or '-' before {val!r} in {text!r}")
        i += 1
        result = result + parse_term() * sign
    return result


# ---------- division and inversion ----------


def divide_by_p(q: LaurentPoly) -> LaurentPoly:
    """Divide a mod-p**2 polynomial with p-divisible coefficients by p."""
    p, level = char_of_modulus(q.modulus)
    if level != 2:
        raise RingError("divide_by_p expects a mod-p**2 polynomial")
    out = {}
    for exps, c in q.terms.items():
        if c % p != 0:
            mono = LaurentPoly.monomial(q.vars, q.modulus, c, exps)
            raise NotDivisibleError(f"coefficient of term '{mono}' is not divisible by {p}")
        out[exps] = (c // p) % p
    return LaurentPoly(q.vars, p, out)


def invert_poly(u: LaurentPoly) -> LaurentPoly:
    """Invert a unit; dispatches on the modulus level."""
    p, level = char_of_modulus(u.modulus)
    if level == 1:
        if len(u.terms) != 1:
            raise NotAUnitError(f"'{u}' is not a unit (not a single term)")
        (exps, coeff), = u.terms.items()
        inv_exps = tuple(-e for e in exps)
        try:
            return LaurentPoly.monomial(u.vars, u.modulus, pow(coeff, p - 2, p), inv_exps)
        except RingError as exc:
            raise NotAUnitError(f"'{u}' is not a unit: {exc}") from exc
    return invert_unit(u)


def invert_unit(u: LaurentPoly) -> LaurentPoly:
    """Invert a mod-p**2 unit of shape m*(1 + p*x), m a monomial unit."""
    p, level = char_of_modulus(u.modulus)
    if level != 2:
        raise RingError("invert_unit expects a mod-p**2 polynomial")
    p2 = u.modulus
    unit_terms = [(e, c) for e, c in u.terms.items() if c % p != 0]
    if len(unit_terms) != 1:
        raise NotAUnitError(f"'{u}' is not of unit shape m*(1 + p*x)")
    e0, c0 = unit_terms[0]
    try:
        m_inv = LaurentPoly.monomial(u.vars, p2, pow(c0, -1, p2), tuple(-e for e in e0))
    except RingError as exc:
        raise NotAUnitError(f"'{u}' is not of unit shape: {exc}") from exc
    v = m_inv * u  # expected 1 + p*x
    rest = v - LaurentPoly.one(u.vars, p2)
    if any(c % p != 0 for c in rest.terms.values()):
        raise NotAUnitError(f"'{u}' is not of unit shape m*(1 + p*x)")
    two_minus_v = LaurentPoly.const(u.vars, p2, 2) - v  # (1+p*x)^-1 = 1-p*x
    inv = m_inv * two_minus_v
    if not (u * inv).is_one():
        raise NotAUnitError(f"inversion of '{u}' failed its product check")
    return inv


# ---------- matrices ----------


class PolyMatrix:
    """Dense matrix of LaurentPoly entries sharing one VarSpec and modulus."""

    __slots__ = ("rows", "cols", "vars", "modulus", "entries")

    def __init__(self, entries: Iterable[Iterable[LaurentPoly]]):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise RingError("matrix needs at least one entry")
        self.rows = len(rows)
        self.cols = len(rows[0])
        first = rows[0][0]
        self.vars = first.vars
        self.modulus = first.modulus
        for row in rows:
            if len(row) != self.cols:
                raise RingError("ragged matrix")
            for x in row:
                if not _same_ring(x, first):
                    raise RingError("matrix entries live in different rings")
        self.entries = rows

    @staticmethod
    def _make(rows: tuple[tuple[LaurentPoly, ...], ...], vars: VarSpec, modulus: int) -> "PolyMatrix":
        """Trusted constructor: rows is a nonempty rectangular tuple of tuples
        of polynomials over (vars, modulus)."""
        self = object.__new__(PolyMatrix)
        self.rows = len(rows)
        self.cols = len(rows[0])
        self.vars = vars
        self.modulus = modulus
        self.entries = rows
        return self

    # ---------- constructors ----------

    @classmethod
    def zero(cls, rows: int, cols: int, vars: VarSpec, modulus: int) -> "PolyMatrix":
        if rows < 1 or cols < 1:
            raise RingError("matrix needs at least one entry")
        return cls._make(((LaurentPoly.zero(vars, modulus),) * cols,) * rows, vars, modulus)

    @classmethod
    def identity(cls, n: int, vars: VarSpec, modulus: int) -> "PolyMatrix":
        one, rows = LaurentPoly.one(vars, modulus), cls.zero(n, n, vars, modulus).entries
        rows = tuple(row[:i] + (one,) + row[i + 1:] for i, row in enumerate(rows))
        return cls._make(rows, vars, modulus)

    @classmethod
    def from_int_rows(cls, rows: Iterable[Iterable[int]], vars: VarSpec, modulus: int) -> "PolyMatrix":
        return cls([[LaurentPoly.const(vars, modulus, c) for c in row] for row in rows])

    # ---------- basic algebra ----------

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix([[fn(x) for x in row] for row in self.entries])

    def _map_same_ring(self, fn) -> "PolyMatrix":
        """map_entries for an fn that keeps every entry in this matrix's ring."""
        return PolyMatrix._make(
            tuple([tuple([fn(x) for x in row]) for row in self.entries]), self.vars, self.modulus
        )

    def _zip_terms(self, other: "PolyMatrix", sign: int) -> "PolyMatrix":
        """self + sign*other, after one shape and ring check."""
        self._check_shape(other)
        _check_ring(self, other)
        vars, m = self.vars, self.modulus
        return PolyMatrix._make(
            tuple([
                tuple([LaurentPoly._make(vars, m, _sum_terms(a.terms, b.terms, sign))
                       for a, b in zip(ra, rb)])
                for ra, rb in zip(self.entries, other.entries)
            ]),
            vars, m,
        )

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._zip_terms(other, 1)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._zip_terms(other, -1)

    def __neg__(self) -> "PolyMatrix":
        return self._map_same_ring(lambda x: -x)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """Each entry sum_k a_ik * b_kj is accumulated in one dict."""
        return self._fused_product(other, None)

    def nabla(self, A: "PolyMatrix", name: str) -> "PolyMatrix":
        """d/d(name) self + A @ self, each entry accumulated in one dict.

        One step of the connection d + A along one coordinate, applied to the
        columns of self.
        """
        if A.rows != self.rows:
            raise RingError(f"shape mismatch: {A.rows}x{A.cols} connection on {self.rows} rows")
        i = self.vars.index(name)
        start = [[_deriv_terms(x.terms, i) for x in row] for row in self.entries]
        return A._fused_product(self, start)

    def _fused_product(self, other: "PolyMatrix", start) -> "PolyMatrix":
        """start[i][j] + sum_k a_ik * b_kj per entry, after one shape and ring check.

        start is None (all entries start empty) or a grid of unreduced term
        dicts, which are accumulated into in place.
        """
        if self.cols != other.rows:
            raise RingError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        _check_ring(self, other)
        vars, m = self.vars, self.modulus
        cols = [[b.terms for b in col] for col in zip(*other.entries)]
        out = []
        for i, row in enumerate(self.entries):
            row_terms = [a.terms for a in row]
            new_row = []
            for j, col in enumerate(cols):
                acc: dict[tuple[int, ...], int] = {} if start is None else start[i][j]
                for ta, tb in zip(row_terms, col):
                    if ta and tb:
                        _product_terms(acc, ta, tb)
                new_row.append(LaurentPoly._make(vars, m, acc))
            out.append(tuple(new_row))
        return PolyMatrix._make(tuple(out), vars, m)

    def scale(self, s) -> "PolyMatrix":
        """Entry-wise product with an int or a polynomial of this ring."""
        if isinstance(s, int):
            return self._map_same_ring(lambda x: x * s)
        _check_ring(self, s)
        vars, m, ts = self.vars, self.modulus, s.terms
        return self._map_same_ring(lambda x: LaurentPoly._make(vars, m, _product_terms({}, x.terms, ts)))

    def _check_shape(self, other: "PolyMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise RingError("matrix shape mismatch")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    __hash__ = None

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            x.is_one() if i == j else x.is_zero()
            for i, row in enumerate(self.entries)
            for j, x in enumerate(row)
        )

    def max_abs_degree(self) -> int:
        return max(x.max_abs_degree() for row in self.entries for x in row)

    def commutator(self, other: "PolyMatrix") -> "PolyMatrix":
        return self @ other - other @ self

    # ---------- entry-wise semilinear maps ----------

    def deriv(self, name: str) -> "PolyMatrix":
        return self._map_same_ring(lambda x: x.deriv(name))

    def frobenius(self) -> "PolyMatrix":
        return self._map_same_ring(lambda x: x.frobenius())

    def subst(self, images, target: VarSpec) -> "PolyMatrix":
        return self.map_entries(lambda x: x.subst(images, target))

    def extend_vars(self, target: VarSpec) -> "PolyMatrix":
        return self.map_entries(lambda x: x.extend_vars(target))

    # ---------- determinant and inverse ----------

    def det(self) -> LaurentPoly:
        if self.rows != self.cols:
            raise RingError("determinant of a non-square matrix")
        n = self.rows
        if n == 1:
            return self.entries[0][0]
        # cofactor expansion along the first row; fine at gallery sizes
        acc = LaurentPoly.zero(self.vars, self.modulus)
        for j in range(n):
            a = self.entries[0][j]
            if a.is_zero():
                continue
            term = a * self._minor(0, j).det()
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    def _minor(self, i: int, j: int) -> "PolyMatrix":
        """The submatrix without row i and column j."""
        return PolyMatrix._make(
            tuple(row[:j] + row[j + 1:] for a, row in enumerate(self.entries) if a != i),
            self.vars, self.modulus,
        )

    def adjugate(self) -> "PolyMatrix":
        n = self.rows
        if n == 1:
            return PolyMatrix([[LaurentPoly.one(self.vars, self.modulus)]])
        cof = []
        for i in range(n):
            row = []
            for j in range(n):
                m = self._minor(i, j).det()
                row.append(m if (i + j) % 2 == 0 else -m)
            cof.append(row)
        # adjugate = transpose of the cofactor matrix
        return PolyMatrix._make(tuple(zip(*cof)), self.vars, self.modulus)

    def inverse_unit_det(self) -> "PolyMatrix":
        """Exact inverse; requires the determinant to be a ring unit."""
        d = self.det()
        if not d.is_unit():
            raise NotAUnitError(f"matrix determinant '{d}' is not a unit")
        dinv = invert_poly(d)
        inv = self.adjugate().scale(dinv)
        if not (self @ inv).is_identity():
            raise RingError("matrix inversion failed its product check")
        return inv

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(x) for x in row) for row in self.entries) + "]"

    def __repr__(self) -> str:
        return f"<PolyMatrix {self.rows}x{self.cols} {self}>"


def trunc_exp(M: PolyMatrix, ctx: PrimeContext) -> PolyMatrix:
    """Truncated exponential sum_{i<=p-2} M^i/i! of a matrix with M^(p-1) = 0.

    The enforced nilpotency makes the degree-(p-1) term of the exponential
    vanish, so the (p-1)! denominator is never needed.  The powers stop at
    the first zero one, which proves M^(p-1) = 0.
    """
    if M.rows != M.cols:
        raise RingError("trunc_exp of a non-square matrix")
    p = ctx.p
    if M.modulus != p:
        raise RingError("trunc_exp expects a mod-p matrix")
    powers = [PolyMatrix.identity(M.rows, M.vars, M.modulus), M]
    while len(powers) < p and not powers[-1].is_zero():
        powers.append(powers[-1] @ M)
    top = powers[-1]
    if not top.is_zero():
        witness = next(
            (i, j, str(top.entries[i][j]))
            for i in range(top.rows)
            for j in range(top.cols)
            if not top.entries[i][j].is_zero()
        )
        raise NilpotencyError(
            f"matrix power {p - 1} is nonzero at entry {witness[:2]}: {witness[2]}"
        )
    acc = PolyMatrix.zero(M.rows, M.rows, M.vars, M.modulus)
    for i, power in enumerate(powers[:-1]):
        acc = acc + power.scale(ctx.inv_factorials[i])
    return acc


# ---------- differentials ----------


def jacobian(funcs: list[LaurentPoly]) -> PolyMatrix:
    """J[j][i] = d(f_j)/d(t_i): row j holds the coefficients of df_j on the dt_i."""
    return PolyMatrix([[f.deriv(name) for name in f.vars.names] for f in funcs])


def monomials_in_box(vars: VarSpec, bound: int) -> list[tuple[int, ...]]:
    """All exponent vectors with |e_i| <= bound, respecting inversion flags.

    Sorted 'simple first' so that solver bases are deterministic.
    """
    ranges = []
    for name in vars.names:
        if vars.allows_negative(name):
            ranges.append(range(-bound, bound + 1))
        else:
            ranges.append(range(0, bound + 1))
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], rest: list[range]) -> None:
        if not rest:
            out.append(prefix)
            return
        for e in rest[0]:
            rec(prefix + (e,), rest[1:])

    rec((), ranges)
    out.sort(key=monomial_sort_key)
    return out
