"""Exact sparse Laurent-polynomial arithmetic modulo p and modulo p**2.

A polynomial is a finite map {exponent vector -> nonzero residue}.  Exponent
vectors follow the variable order of a VarSpec; negative exponents are legal
only on variables the VarSpec marks as inverted (localization data).  The
`modulus` field is either an odd prime p (ordinary chart functions) or p**2
(functions on the mod-p**2 thickening of a chart).

The zero polynomial is the empty map.  Equality is structural.  Canonical
term order for text emission is graded lex, largest first: `2*s^4 + s^2`.

Text syntax (`LaurentPoly.parse`): a sum of signed terms, each a `*`-product
of integer literals and `name` or `name^int` factors, for example
`2*t^2*u^-1 - 3 + t`.  Whitespace may separate any two tokens and may open
or close the text.  Every term after the first opens with `+` or `-`; a
negative literal such as the `-2` of `t^2 -2*t` carries its own sign.
Exponents are `int` or `-int`, and negative ones are legal only on inverted
variables.  Anything else (`3t`, `t^2^3`, `t*-t`, `t^--3`, empty text) is a
ParseError, and so is an integer past Python's limit on integer-string
conversion (4300 digits).

The public constructors `LaurentPoly(...)` and `PolyMatrix(...)` validate
their input: exponent lengths, negative exponents only on inverted variables,
one ring for all matrix entries.  Same-ring arithmetic (`+ - *`, negation,
`deriv`, `frobenius`, matrix `@`, `scale`, the linear combination
`PolyMatrix.combine`, the connection step `nabla`, its chain `nabla_power`
and the p-curvature `p_curvature`) keeps those invariants by construction,
so it checks the operands' ring once per call and builds its result with the
trusted `_make` constructors, which only reduce mod m and drop zeros.  So are
the constants (`zero`, `const`, `one`, matrix `zero`, `identity` and
`from_int_rows`), which check only the modulus and the shape.  `subst`
checks that every image lives in the target ring and builds its result the
same way.  So do the other operations that change the ring but keep every
exponent valid: `reduce_mod` and `divide_by_p` (same variables, a modulus
dividing the old one), and `extend_vars` onto a VarSpec that only adds
inversions.  `extend_vars` onto fewer inversions and `map_entries` go
through the validating constructors.  The term-dict format, the trusted
constructors, `term_grid` and the `_`-helpers on raw term dicts belong to
this module alone: every other module works through the public operations
(`tests/test_boundaries.py` checks this).

Polynomials and matrices are immutable: nothing writes to `terms`,
`entries`, `vars` or `modulus` after construction.  A result may therefore
share entries with its operands, and one polynomial may fill several entries.
The same-ring kernels use this to skip zeros, always after their ring check:
- `a + 0`, `a - 0` and `0 + b` return the nonzero operand; `0 * b`, `a * 0`
  and `-0` return the zero one;
- matrix `+` and `-` keep the entry beside a zero entry, and negation,
  `scale`, `deriv` and `frobenius` keep zero entries;
- `@` and `nabla_power` multiply only pairs of nonzero entries, and the
  entries that get no term share one zero per result matrix; `@` is
  `_grid_product` on the entries' term grids, and `commutes_with` compares
  both products as reduced grids without building polynomials;
- `nabla_power` runs its n steps on raw term dicts, builds polynomials only
  for its result, and never writes to an operand's term dicts;
- `p_curvature` splits A into constant coefficient matrices, kept as sparse
  lists of row dicts, and when they commute assembles Jacobson's closed form
  from their p-th powers and the terms of A with exponent -1 mod p; only
  when they do not does it run the `nabla_power` chain;
- `combine` (sum_k s_k M_k, behind `trunc_exp`, the Taylor check and
  Katz's projector) adds every product into one grid of term dicts; an int
  s_k scales coefficients without a polynomial product, an entry whose one
  contribution has s_k = 1 is that operand's entry, and the entries with
  none share one zero, as do the zero entries of `from_int_rows`;
- `subst` keeps its image powers as term dicts and accumulates every term
  into one dict, building one polynomial at the end;
- a power of a single term c t^e, negative ones of a unit included, is
  c^n t^(n e) directly, and `invert_unit` multiplies by the monomial m^-1
  by shifting exponents, so its one polynomial product is its check.
`VarSpec.make` and `with_inverted` intern one VarSpec per (names, inverted),
so the ring check is usually an identity test; a directly built VarSpec still
compares equal.
"""

from __future__ import annotations

import itertools
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


# the text syntax of the module docstring: one regex per term, one per factor
_FACTOR = r"-?\d+|[A-Za-z_][A-Za-z_0-9]*(?:\s*\^\s*-?\s*\d+)?"
_TERM_RE = re.compile(
    rf"\s*(?P<sign>[+-]?)\s*(?P<body>(?:{_FACTOR})(?:\s*\*\s*(?:{_FACTOR}))*)\s*"
)
_FACTOR_RE = re.compile(r"(-?\d+)|([A-Za-z_][A-Za-z_0-9]*)(?:\s*\^\s*(-?)\s*(\d+))?")


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

    def _with_terms(self, terms: dict[tuple[int, ...], int]) -> "LaurentPoly":
        """A polynomial of this ring with terms that are already reduced."""
        out = object.__new__(LaurentPoly)
        out.vars = self.vars
        out.modulus = self.modulus
        out.terms = terms
        return out

    # ---------- constructors ----------

    @classmethod
    def zero(cls, vars: VarSpec, modulus: int) -> "LaurentPoly":
        if modulus < 2:
            raise RingError(f"bad modulus {modulus}")
        return LaurentPoly._make(vars, modulus, {})

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
        if not other.terms:
            return self
        if not self.terms:
            return other
        return self._with_terms(_sum_terms(self.terms, other.terms, 1, self.modulus))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_ring(self, other)
        if not other.terms:
            return self
        return self._with_terms(_sum_terms(self.terms, other.terms, -1, self.modulus))

    def __neg__(self) -> "LaurentPoly":
        if not self.terms:
            return self
        return LaurentPoly._make(self.vars, self.modulus, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if not self.terms:
                return self
            return LaurentPoly._make(self.vars, self.modulus, {e: c * other for e, c in self.terms.items()})
        _check_ring(self, other)
        if not self.terms:
            return self
        if not other.terms:
            return other
        return LaurentPoly._make(self.vars, self.modulus, _product_terms({}, self.terms, other.terms))

    def __rmul__(self, other: int) -> "LaurentPoly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n == 1:
            return self
        if len(self.terms) == 1 and (n >= 0 or self.is_unit()):  # (c t^e)^n = c^n t^(n e)
            (exps, c), = self.terms.items()
            return LaurentPoly._make(
                self.vars, self.modulus, {tuple(n * e for e in exps): pow(c, n, self.modulus)}
            )
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
        p = _frobenius_prime(self.modulus)
        return LaurentPoly._make(
            self.vars, self.modulus,
            {tuple(p * e for e in exps): c for exps, c in self.terms.items()},
        )

    def reduce_mod(self, modulus: int) -> "LaurentPoly":
        if modulus < 2:
            raise RingError(f"bad modulus {modulus}")
        if self.modulus % modulus != 0:
            raise RingError(f"cannot reduce modulo {modulus} from {self.modulus}")
        return LaurentPoly._make(self.vars, modulus, self.terms)

    def extend_vars(self, target: VarSpec) -> "LaurentPoly":
        """Move to a VarSpec with the same names but possibly more inversions.

        Onto fewer inversions the terms are validated, so a negative exponent
        on a variable the target does not invert raises.
        """
        if target.names != self.vars.names:
            raise RingError("extend_vars requires identical variable names")
        if target.inverted >= self.vars.inverted:
            return LaurentPoly._make(target, self.modulus, self.terms)
        return LaurentPoly(target, self.modulus, self.terms)

    def subst(self, images: Mapping[str, "LaurentPoly"], target: VarSpec) -> "LaurentPoly":
        """Substitute each variable by its image polynomial over target vars.

        Variables without an explicit image must exist in target under the
        same name (identity substitution).  Negative powers invert the image,
        which must be a unit of the target ring.  The image powers are
        cached as term dicts, every term is accumulated into one dict, and
        one polynomial is built at the end.
        """
        m = self.modulus
        cache: dict[tuple[str, int], dict] = {}

        def image_power(name: str, e: int) -> dict:
            key = (name, e)
            if key in cache:
                return cache[key]
            if name in images:
                img = images[name]
                if img.vars != target or img.modulus != m:
                    raise SubstitutionError(
                        f"image of {name!r} lives in the wrong ring for this substitution"
                    )
            else:
                if name not in target.names:
                    raise SubstitutionError(f"no image for variable {name!r}")
                img = LaurentPoly.var(target, m, name)
            try:
                val = cache[key] = (img ** e).terms
            except RingError as exc:
                raise SubstitutionError(f"substituting {name!r}^{e}: {exc}") from exc
            return val

        out: dict[tuple[int, ...], int] = {}
        get = out.get
        constant = (0,) * target.arity
        for exps, c in self.terms.items():
            term = {constant: c}
            for name, e in zip(self.vars.names, exps):
                if e != 0:
                    term = _product_terms({}, term, image_power(name, e))
            for e, ct in term.items():
                out[e] = get(e, 0) + ct
        return LaurentPoly._make(target, m, out)

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
        """Read the text syntax of the module docstring."""
        terms: dict[tuple[int, ...], int] = {}
        pos = 0
        while True:
            m = _TERM_RE.match(text, pos)
            if m is None or (pos and not m["sign"]):
                raise ParseError(f"bad term at {text[pos:pos + 10]!r} in polynomial {text!r}")
            coeff = -1 if m["sign"] == "-" else 1
            exps = [0] * vars.arity
            for literal, name, minus, exp in _FACTOR_RE.findall(m["body"]):
                if literal:
                    coeff *= _int(literal, text)
                    continue
                if name not in vars.names:
                    raise ParseError(f"unknown variable {name!r} in polynomial {text!r}")
                e = _int(minus + exp, text) if exp else 1
                if e < 0 and not vars.allows_negative(name):
                    raise ParseError(
                        f"negative exponent on non-inverted variable {name!r} in {text!r}"
                    )
                exps[vars.index(name)] += e
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
            pos = m.end()
            if pos == len(text):
                return cls(vars, modulus, terms)


def _int(digits: str, text: str) -> int:
    """int(digits); Python's limit on integer-string conversion is a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"integer of {len(digits.lstrip('-'))} digits is too long in polynomial "
            f"{text[:20]!r}..."
        ) from None


def _frobenius_prime(modulus: int) -> int:
    """p, for a mod-p ring; frobenius is refused on mod-p**2 rings."""
    p, level = char_of_modulus(modulus)
    if level != 1:
        raise RingError("frobenius is only defined on mod-p polynomials")
    return p


def _sum_terms(a: dict, b: dict, sign: int, m: int) -> dict:
    """The reduced terms of a + sign*b mod m, for reduced a and b.

    One pass over b into a copy of a: only the entries b touches are reduced
    again, and those that cancel are dropped.
    """
    out = dict(a)
    for e, c in b.items():
        if r := (out.get(e, 0) + sign * c) % m:
            out[e] = r
        else:
            del out[e]
    return out


def _deriv_terms(terms: dict, i: int) -> dict:
    """The unreduced terms of the partial derivative along variable i."""
    # lowering exponent i is injective, so no two terms meet
    return {
        exps[:i] + (e - 1,) + exps[i + 1:]: c * e
        for exps, c in terms.items() if (e := exps[i])
    }


def _reduced_terms(terms: dict, m: int) -> dict:
    """terms mod m without the zero coefficients."""
    return {e: r for e, c in terms.items() if (r := c % m)}


def _grid_product(a: list[list[dict]], b: list[list[dict]]) -> list[list[dict]]:
    """The unreduced term grid of the matrix product of two grids of term dicts.

    Only pairs of nonzero entries are multiplied, each entry's products
    accumulated in one fresh dict.
    """
    cols = [[(k, tb) for k, tb in enumerate(col) if tb] for col in zip(*b)]
    grid = []
    for row in a:
        new_row = []
        for col in cols:
            acc: dict[tuple[int, ...], int] = {}
            for k, tb in col:
                if ta := row[k]:
                    _product_terms(acc, ta, tb)
            new_row.append(acc)
        grid.append(new_row)
    return grid


def _product_terms(out: dict, a: dict, b: dict) -> dict:
    """Accumulate the unreduced terms of a*b into out.

    Exponent sums are unpacked in up to three variables, where building them
    with `tuple(map(add, ...))` costs more than the rest of the loop.
    """
    if not a:
        return out
    get = out.get
    b_items = b.items()
    arity = len(next(iter(a)))
    if arity == 1:
        for (x,), ca in a.items():
            for (y,), cb in b_items:
                e = (x + y,)
                out[e] = get(e, 0) + ca * cb
    elif arity == 2:
        for (x0, x1), ca in a.items():
            for (y0, y1), cb in b_items:
                e = (x0 + y0, x1 + y1)
                out[e] = get(e, 0) + ca * cb
    elif arity == 3:
        for (x0, x1, x2), ca in a.items():
            for (y0, y1, y2), cb in b_items:
                e = (x0 + y0, x1 + y1, x2 + y2)
                out[e] = get(e, 0) + ca * cb
    else:
        for ea, ca in a.items():
            for eb, cb in b_items:
                e = tuple(map(add, ea, eb))
                out[e] = get(e, 0) + ca * cb
    return out


def _wilson_derivative_terms(terms: dict, i: int, p: int) -> dict:
    """The unreduced terms of the (p-1)-th derivative along variable i mod p,
    in a fresh dict: -t^(e - (p-1) eps_i) for each term t^e with e_i = -1 mod p."""
    # lowering exponent i is injective, so no two terms meet
    return {
        exps[:i] + (e - p + 1,) + exps[i + 1:]: -c
        for exps, c in terms.items() if (e := exps[i]) % p == p - 1
    }


# ---------- sparse constant matrices: lists of row dicts {column: coefficient} ----------


def _scalar_classes(grid: list[list[dict]], p: int) -> list[tuple[list[dict], list[tuple]]]:
    """The constant coefficient matrices A_e of the mod-p grid sum_e t^e A_e,
    grouped by scalar class: [(B, [(e, c), ...])] with A_e = c B, where
    the first nonzero entry of B, in row-major order, is 1."""
    coeffs: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}
    for i, row in enumerate(grid):
        for j, terms in enumerate(row):
            for e, c in terms.items():
                if e in coeffs:
                    coeffs[e].append((i, j, c))
                else:
                    coeffs[e] = [(i, j, c)]
    classes: dict[tuple, tuple[list[dict], list[tuple]]] = {}
    for e, entries in coeffs.items():  # each in row-major order
        c = entries[0][2]
        if c != 1:
            inv = pow(c, -1, p)
            entries = tuple((i, j, v * inv % p) for i, j, v in entries)
        else:
            entries = tuple(entries)
        cls = classes.get(entries)
        if cls is None:
            b = [{} for _ in grid]
            for i, j, v in entries:
                b[i][j] = v
            cls = classes[entries] = (b, [])
        cls[1].append((e, c))
    return list(classes.values())


def _constant_product(x: list[dict], y: list[dict], p: int) -> list[dict]:
    """The product of two sparse constant matrices mod p."""
    out = []
    for row in x:
        acc: dict[int, int] = {}
        for k, c in row.items():
            for j, d in y[k].items():
                acc[j] = acc.get(j, 0) + c * d
        out.append({j: r for j, v in acc.items() if (r := v % p)})
    return out


def _commute_pairwise(mats: list[list[dict]], p: int) -> bool:
    """Whether the sparse constant matrices commute pairwise; stops at the
    first pair that does not."""
    return all(
        _constant_product(a, b, p) == _constant_product(b, a, p)
        for a, b in itertools.combinations(mats, 2)
    )


def _constant_power(x: list[dict], n: int, p: int) -> list[dict]:
    """x^n mod p for n >= 1 by repeated squaring, stopping at the first zero square."""
    result = None
    while True:
        if n & 1:
            result = x if result is None else _constant_product(result, x, p)
        n >>= 1
        if not n:
            return result
        x = _constant_product(x, x, p)
        if not any(x):
            return x


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
        out[exps] = c // p
    return LaurentPoly._make(q.vars, p, out)


def invert_poly(u: LaurentPoly) -> LaurentPoly:
    """Invert a unit; dispatches on the modulus level.

    A single-term unit c t^e has the inverse c^-1 t^-e at either level; the
    other mod-p**2 units m*(1 + p*x) go through `invert_unit`.
    """
    if u.is_unit():
        (exps, coeff), = u.terms.items()
        return LaurentPoly._make(
            u.vars, u.modulus, {tuple(-e for e in exps): pow(coeff, -1, u.modulus)}
        )
    if char_of_modulus(u.modulus)[1] == 2:
        return invert_unit(u)
    if len(u.terms) != 1:
        raise NotAUnitError(f"'{u}' is not a unit (not a single term)")
    (exps, _), = u.terms.items()
    name = next(n for n, e in zip(u.vars.names, exps) if e and not u.vars.allows_negative(n))
    raise NotAUnitError(f"'{u}' is not a unit: variable {name!r} is not inverted")


def invert_unit(u: LaurentPoly) -> LaurentPoly:
    """Invert a mod-p**2 unit of shape m*(1 + p*x), m a monomial unit.

    With v = m^-1 u = 1 + p*x the inverse is m^-1 (2 - v), because
    (1 + p*x)(1 - p*x) = 1 mod p**2.  Both products by the monomial m^-1
    shift exponents and scale coefficients; the one polynomial product is
    the check u * u^-1 = 1.
    """
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
    (shift, c_inv), = m_inv.terms.items()

    def times_m_inv(terms: dict) -> dict:  # shifting exponents is injective
        return {tuple(map(add, e, shift)): c * c_inv for e, c in terms.items()}

    v = _reduced_terms(times_m_inv(u.terms), p2)  # expected 1 + p*x
    one = (0,) * u.vars.arity
    if v.get(one) != 1 or any(c % p != 0 for e, c in v.items() if e != one):
        raise NotAUnitError(f"'{u}' is not of unit shape m*(1 + p*x)")
    two_minus_v = {e: 1 if e == one else -c for e, c in v.items()}  # (1+p*x)^-1 = 1-p*x
    inv = LaurentPoly._make(u.vars, p2, times_m_inv(two_minus_v))
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

    @staticmethod
    def _from_terms(grid: list[list], vars: VarSpec, modulus: int) -> "PolyMatrix":
        """Trusted constructor from rows of unreduced term dicts over (vars,
        modulus); the empty dicts (and None) become one shared zero, built
        only if needed, and a cell that is already a polynomial is kept."""
        zero = None
        rows = []
        for row in grid:
            new_row = []
            for t in row:
                if t:
                    new_row.append(LaurentPoly._make(vars, modulus, t) if type(t) is dict else t)
                else:
                    if zero is None:
                        zero = LaurentPoly._make(vars, modulus, {})
                    new_row.append(zero)
            rows.append(tuple(new_row))
        return PolyMatrix._make(tuple(rows), vars, modulus)

    def term_grid(self) -> list[list[dict]]:
        """The rows of entry term dicts, for the kernels on raw terms; not to be written to."""
        return [[x.terms for x in row] for row in self.entries]

    # ---------- constructors ----------

    @classmethod
    def zero(cls, rows: int, cols: int, vars: VarSpec, modulus: int) -> "PolyMatrix":
        if rows < 1 or cols < 1:
            raise RingError("matrix needs at least one entry")
        return cls._make(((LaurentPoly.zero(vars, modulus),) * cols,) * rows, vars, modulus)

    @classmethod
    def identity(cls, n: int, vars: VarSpec, modulus: int) -> "PolyMatrix":
        if n < 1:
            raise RingError("matrix needs at least one entry")
        zero, one = LaurentPoly.zero(vars, modulus), LaurentPoly.one(vars, modulus)
        rows = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        return cls._make(rows, vars, modulus)

    @classmethod
    def from_int_rows(cls, rows: Iterable[Iterable[int]], vars: VarSpec, modulus: int) -> "PolyMatrix":
        """Constant entries, built without per-entry validation; the zero ones share one zero."""
        if modulus < 2:
            raise RingError(f"bad modulus {modulus}")
        constant = (0,) * vars.arity
        grid = [[{constant: c} if c % modulus else {} for c in row] for row in rows]
        if not grid or not grid[0]:
            raise RingError("matrix needs at least one entry")
        if any(len(row) != len(grid[0]) for row in grid):
            raise RingError("ragged matrix")
        return cls._from_terms(grid, vars, modulus)

    # ---------- basic algebra ----------

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix([[fn(x) for x in row] for row in self.entries])

    def _map_same_ring(self, fn) -> "PolyMatrix":
        """map_entries for an fn that keeps every entry in this matrix's ring
        and maps zero to zero; zero entries are kept as they are."""
        return PolyMatrix._make(
            tuple([tuple([fn(x) if x.terms else x for x in row]) for row in self.entries]),
            self.vars, self.modulus,
        )

    def _zip_terms(self, other: "PolyMatrix", sign: int) -> "PolyMatrix":
        """self + sign*other, after one shape and ring check.

        a + 0 is a and 0 + b is b; only the other pairs build an entry.
        """
        self._check_shape(other)
        _check_ring(self, other)
        vars, m = self.vars, self.modulus
        return PolyMatrix._make(
            tuple([
                tuple([
                    a if not b.terms else b if sign > 0 and not a.terms
                    else a._with_terms(_sum_terms(a.terms, b.terms, sign, m))
                    for a, b in zip(ra, rb)
                ])
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
        """sum_k a_ik * b_kj per entry, accumulated in one dict, after one shape
        and ring check.

        Only pairs of nonzero a_ik, b_kj are multiplied, and every entry
        whose accumulator stays empty is one shared zero.
        """
        if self.cols != other.rows:
            raise RingError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        _check_ring(self, other)
        return PolyMatrix._from_terms(
            _grid_product(self.term_grid(), other.term_grid()), self.vars, self.modulus)

    def nabla(self, A: "PolyMatrix", name: str) -> "PolyMatrix":
        """d/d(name) self + A @ self: one step of the connection d + A along
        one coordinate, applied to the columns of self."""
        return self.nabla_power(A, name, 1)

    def nabla_power(self, A: "PolyMatrix", name: str, n: int) -> "PolyMatrix":
        """(d/d(name) + A)^n applied to the columns of self: n fused steps
        b -> d_name b + A b, after one shape and ring check.

        The steps run on grids of raw term dicts.  Each step builds fresh
        dicts from the derivative of the previous grid plus the products of
        the nonzero entries of A (listed once per row) with the nonzero
        entries of the grid, then reduces them mod m and drops zeros.
        Polynomials are built only for the result, whose empty entries share
        one zero.  n = 0 returns self.
        """
        if A.rows != self.rows:
            raise RingError(f"shape mismatch: {A.rows}x{A.cols} connection on {self.rows} rows")
        if A.cols != self.rows:
            raise RingError(f"shape mismatch {A.rows}x{A.cols} @ {self.rows}x{self.cols}")
        _check_ring(A, self)
        i = self.vars.index(name)
        if n < 0:
            raise RingError(f"negative number of connection steps {n}")
        if n == 0:
            return self
        vars, m = self.vars, self.modulus
        a_rows = [[(k, a.terms) for k, a in enumerate(row) if a.terms] for row in A.entries]
        grid = [[x.terms for x in row] for row in self.entries]
        for _ in range(n):
            new_grid = []
            for a_row, row in zip(a_rows, grid):
                new_row = []
                for j, x in enumerate(row):
                    acc = _deriv_terms(x, i) if x else {}
                    for k, ta in a_row:
                        if tb := grid[k][j]:
                            _product_terms(acc, ta, tb)
                    new_row.append({e: r for e, c in acc.items() if (r := c % m)} if acc else acc)
                new_grid.append(new_row)
            grid = new_grid
        return PolyMatrix._from_terms(grid, vars, m)

    def p_curvature(self, name: str) -> "PolyMatrix":
        """(d/d(name) + A)^p applied to the identity frame, A = self a square
        mod-p matrix: the p-curvature of the connection d + A along one
        coordinate t = name.

        Write A = sum_e t^e A_e with constant matrices A_e.  When the A_e
        commute pairwise, A commutes with all its derivatives, and Jacobson's
        formula for (d + A)^p, with d^p = 0 on the chart ring and
        A^p = sum_e t^(pe) A_e^p in characteristic p, gives

            psi = sum_e t^(pe) A_e^p + d^(p-1) A.

        d^(p-1) t^e multiplies t^(e - p + 1) by the product of the p-1
        consecutive integers e, e-1, ..., e-p+2: (p-1)! = -1 (Wilson) when
        e = -1 mod p, else 0.  A_e = c B over a representative B of its
        scalar class, so A_e^p = c B^p, and B^p comes from squarings that
        stop at the first zero.  The commutation test compares the
        representatives pairwise (one class at rank 1) and stops at the
        first pair that differs; then psi is the chain
        `self.nabla_power(self, name, p - 1)`.  Everything runs on raw term
        dicts and sparse constant matrices; polynomials are built only for
        the result.
        """
        if self.rows != self.cols:
            raise RingError(f"p-curvature of a non-square {self.rows}x{self.cols} matrix")
        p = _frobenius_prime(self.modulus)
        i = self.vars.index(name)
        grid = self.term_grid()
        classes = _scalar_classes(grid, p)
        if not _commute_pairwise([b for b, _ in classes], p):
            return self.nabla_power(self, name, p - 1)
        out = [[_wilson_derivative_terms(x, i, p) if x else None for x in row] for row in grid]
        for b, members in classes:
            pth = [(tuple(p * x for x in e), c) for e, c in members]
            for acc_row, row in zip(out, _constant_power(b, p, p)):
                for j, v in row.items():
                    acc = acc_row[j]
                    if acc is None:
                        acc = acc_row[j] = {}
                    for e, c in pth:
                        acc[e] = acc.get(e, 0) + c * v
        return PolyMatrix._from_terms(out, self.vars, p)

    @staticmethod
    def combine(pairs: Iterable[tuple]) -> "PolyMatrix":
        """sum_k s_k * M_k over the (s_k, M_k) of pairs, accumulated on one grid
        of term dicts, after one shape and ring check per pair.

        Each s_k is an int, which scales coefficients without a polynomial
        product, or a polynomial of the matrices' ring.  An entry with exactly
        one contribution, by the int 1, is that operand's entry (as a + 0 is
        a); the entries with none share one zero.
        """
        pairs = list(pairs)
        if not pairs:
            raise RingError("combine needs at least one matrix")
        first = pairs[0][1]
        grid: list[list] = [[None] * first.cols for _ in range(first.rows)]
        for s, mat in pairs:
            first._check_shape(mat)
            _check_ring(first, mat)
            if isinstance(s, int):
                ts = None
                if s % first.modulus == 0:
                    continue
            else:
                _check_ring(first, s)
                ts = s.terms
                if not ts:
                    continue
            for cells, row in zip(grid, mat.entries):
                for j, x in enumerate(row):
                    if not x.terms:
                        continue
                    acc = cells[j]
                    if acc is None and ts is None and s == 1:
                        cells[j] = x
                        continue
                    if acc is None:
                        acc = cells[j] = {}
                    elif type(acc) is not dict:
                        acc = cells[j] = dict(acc.terms)
                    if ts is None:
                        get = acc.get
                        for e, c in x.terms.items():
                            acc[e] = get(e, 0) + c * s
                    else:
                        _product_terms(acc, x.terms, ts)
        return PolyMatrix._from_terms(grid, first.vars, first.modulus)

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
        return not any(x.terms for row in self.entries for x in row)

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

    def commutes_with(self, other: "PolyMatrix") -> bool:
        """self @ other == other @ self, after the shape and ring checks of both
        products; the products are compared as reduced term grids, and no
        polynomial is built."""
        for a, b in ((self, other), (other, self)):
            if a.cols != b.rows:
                raise RingError(f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
        _check_ring(self, other)
        m, a, b = self.modulus, self.term_grid(), other.term_grid()
        return self.rows == self.cols and all(
            (x and _reduced_terms(x, m)) == (y and _reduced_terms(y, m))
            for row_ab, row_ba in zip(_grid_product(a, b), _grid_product(b, a))
            for x, y in zip(row_ab, row_ba)
        )

    # ---------- entry-wise semilinear maps ----------

    # both validate before mapping, because _map_same_ring skips zero entries

    def deriv(self, name: str) -> "PolyMatrix":
        i, vars, m = self.vars.index(name), self.vars, self.modulus
        return self._map_same_ring(lambda x: LaurentPoly._make(vars, m, _deriv_terms(x.terms, i)))

    def frobenius(self) -> "PolyMatrix":
        _frobenius_prime(self.modulus)
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
        acc = None
        for j, a in enumerate(self.entries[0]):
            if a.is_zero():
                continue
            term = a * self._minor(0, j).det()
            if acc is None:
                acc = term if j % 2 == 0 else -term
            else:
                acc = acc + term if j % 2 == 0 else acc - term
        return LaurentPoly.zero(self.vars, self.modulus) if acc is None else acc

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
    return PolyMatrix.combine(zip(ctx.inv_factorials, powers[:-1]))


# ---------- differentials ----------


def jacobian(funcs: list[LaurentPoly]) -> PolyMatrix:
    """J[j][i] = d(f_j)/d(t_i): row j holds the coefficients of df_j on the dt_i."""
    return PolyMatrix([[f.deriv(name) for name in f.vars.names] for f in funcs])


def monomials_in_box(vars: VarSpec, bound: int) -> list[tuple[int, ...]]:
    """All exponent vectors with |e_i| <= bound, respecting inversion flags.

    Sorted 'simple first' so that solver bases are deterministic.
    """
    ranges = [
        range(-bound if vars.allows_negative(name) else 0, bound + 1) for name in vars.names
    ]
    return sorted(itertools.product(*ranges), key=monomial_sort_key)
