"""Exact sparse Laurent-polynomial arithmetic modulo p and modulo p**2.

A polynomial is a finite map {exponent vector -> nonzero residue}.  Exponent
vectors follow the variable order of a VarSpec; negative exponents are legal
only on variables the VarSpec marks as inverted (localization data).  The
`modulus` field is either an odd prime p (ordinary chart functions) or p**2
(functions on the mod-p**2 thickening of a chart).

The zero polynomial is the empty map.  Equality is structural.  Canonical
term order for text emission is graded lex, largest first: `2*s^4 + s^2`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
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
        return cls(tuple(names), frozenset(inverted))

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
        return VarSpec(self.names, self.inverted | frozenset(extra))


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

    # ---------- constructors ----------

    @classmethod
    def zero(cls, vars: VarSpec, modulus: int) -> "LaurentPoly":
        return cls(vars, modulus, {})

    @classmethod
    def const(cls, vars: VarSpec, modulus: int, c: int) -> "LaurentPoly":
        return cls(vars, modulus, {(0,) * vars.arity: c})

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

    def _check_compatible(self, other: "LaurentPoly") -> None:
        if self.vars != other.vars or self.modulus != other.modulus:
            raise RingError("operands live in different rings")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(self.vars, self.modulus, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(self.vars, self.modulus, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.vars, self.modulus, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.vars, self.modulus, {e: c * other for e, c in self.terms.items()})
        self._check_compatible(other)
        out: dict[tuple[int, ...], int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return LaurentPoly(self.vars, self.modulus, out)

    def __rmul__(self, other: int) -> "LaurentPoly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            return invert_poly(self) ** (-n)
        result = LaurentPoly.one(self.vars, self.modulus)
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
            and self.vars == other.vars
            and self.modulus == other.modulus
            and self.terms == other.terms
        )

    __hash__ = None  # mutable dict inside; structural equality only

    # ---------- derivations and semilinear maps ----------

    def deriv(self, name: str) -> "LaurentPoly":
        """Partial derivative; obeys Leibniz including negative exponents."""
        i = self.vars.index(name)
        out: dict[tuple[int, ...], int] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            new = list(exps)
            new[i] = e - 1
            key = tuple(new)
            out[key] = out.get(key, 0) + c * e
        return LaurentPoly(self.vars, self.modulus, out)

    def frobenius(self) -> "LaurentPoly":
        """g -> g^p, term-wise since coefficients in F_p are Frobenius-fixed."""
        p, level = char_of_modulus(self.modulus)
        if level != 1:
            raise RingError("frobenius is only defined on mod-p polynomials")
        return LaurentPoly(
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

    def parse_factor(sign_ok: bool = False):
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
                if x.vars != self.vars or x.modulus != self.modulus:
                    raise RingError("matrix entries live in different rings")
        self.entries = rows

    # ---------- constructors ----------

    @classmethod
    def zero(cls, rows: int, cols: int, vars: VarSpec, modulus: int) -> "PolyMatrix":
        z = LaurentPoly.zero(vars, modulus)
        return cls([[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int, vars: VarSpec, modulus: int) -> "PolyMatrix":
        one = LaurentPoly.one(vars, modulus)
        z = LaurentPoly.zero(vars, modulus)
        return cls([[one if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_int_rows(cls, rows: Iterable[Iterable[int]], vars: VarSpec, modulus: int) -> "PolyMatrix":
        return cls([[LaurentPoly.const(vars, modulus, c) for c in row] for row in rows])

    # ---------- basic algebra ----------

    def __getitem__(self, ij: tuple[int, int]) -> LaurentPoly:
        return self.entries[ij[0]][ij[1]]

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix([[fn(x) for x in row] for row in self.entries])

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_shape(other)
        return PolyMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_shape(other)
        return PolyMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> "PolyMatrix":
        return self.map_entries(lambda x: -x)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise RingError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero = LaurentPoly.zero(self.vars, self.modulus)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.terms and b.terms:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def scale(self, s) -> "PolyMatrix":
        return self.map_entries(lambda x: x * s)

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
        return self == PolyMatrix.identity(self.rows, self.vars, self.modulus)

    def max_abs_degree(self) -> int:
        return max(x.max_abs_degree() for row in self.entries for x in row)

    def commutator(self, other: "PolyMatrix") -> "PolyMatrix":
        return self @ other - other @ self

    # ---------- entry-wise semilinear maps ----------

    def deriv(self, name: str) -> "PolyMatrix":
        return self.map_entries(lambda x: x.deriv(name))

    def frobenius(self) -> "PolyMatrix":
        return self.map_entries(lambda x: x.frobenius())

    def subst(self, images, target: VarSpec) -> "PolyMatrix":
        return self.map_entries(lambda x: x.subst(images, target))

    def extend_vars(self, target: VarSpec) -> "PolyMatrix":
        return self.map_entries(lambda x: x.extend_vars(target))

    def reduce_mod(self, modulus: int) -> "PolyMatrix":
        return self.map_entries(lambda x: x.reduce_mod(modulus))

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
            minor = PolyMatrix(
                [
                    [self.entries[i][k] for k in range(n) if k != j]
                    for i in range(1, n)
                ]
            )
            term = a * minor.det()
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    def adjugate(self) -> "PolyMatrix":
        n = self.rows
        if n == 1:
            return PolyMatrix([[LaurentPoly.one(self.vars, self.modulus)]])
        cof = []
        for i in range(n):
            row = []
            for j in range(n):
                minor = PolyMatrix(
                    [
                        [self.entries[a][b] for b in range(n) if b != j]
                        for a in range(n) if a != i
                    ]
                )
                m = minor.det()
                row.append(m if (i + j) % 2 == 0 else -m)
            cof.append(row)
        # adjugate = transpose of the cofactor matrix
        return PolyMatrix([[cof[j][i] for j in range(n)] for i in range(n)])

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
    vanish, so the (p-1)! denominator is never needed.
    """
    if M.rows != M.cols:
        raise RingError("trunc_exp of a non-square matrix")
    p = ctx.p
    if M.modulus != p:
        raise RingError("trunc_exp expects a mod-p matrix")
    powers = [PolyMatrix.identity(M.rows, M.vars, M.modulus)]
    for _ in range(p - 1):
        powers.append(powers[-1] @ M)
    top = powers[p - 1]
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
    for i in range(p - 1):
        acc = acc + powers[i].scale(ctx.inv_factorials[i])
    return acc


# ---------- differential forms ----------


@dataclass(frozen=True)
class OneForm:
    """A 1-form sum_i c_i dt_i on a chart; one coefficient per coordinate."""

    vars: VarSpec
    coeffs: tuple[LaurentPoly, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.vars.arity:
            raise RingError("one coefficient per coordinate required")

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.vars, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.vars, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "OneForm":
        return OneForm(self.vars, tuple(-a for a in self.coeffs))

    def scale(self, s) -> "OneForm":
        return OneForm(self.vars, tuple(a * s for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __str__(self) -> str:
        parts = [
            f"({c})*d{n}" for n, c in zip(self.vars.names, self.coeffs) if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


def d(f: LaurentPoly) -> OneForm:
    """Exterior derivative of a function: df = sum_i (df/dt_i) dt_i."""
    return OneForm(f.vars, tuple(f.deriv(n) for n in f.vars.names))


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
