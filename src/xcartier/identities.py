"""Verifiers for the combinatorial identities behind the gluing.

`f_poly(p, k)` is the sum over natural tuples (a_1, ..., a_k) with
sum <= p - k of the products

    (1 + T_k)^{a_k} (1 + T_k + T_{k-1})^{a_{k-1}} ... (1 + T_k + ... + T_1)^{a_1}

mod p.  With S_m = 1 + T_k + ... + T_m that sum is the complete homogeneous
sum h_{p-k}(1, S_1, ..., S_k), built by the recursion h[d] += S_m h[d-1]:
k(p-k) products by a linear form.  `symmetrized_f` sums f over all k!
variable permutations by orbits: the permutations of a sorted exponent
vector lambda all get |Stab(lambda)| times the sum of the coefficients of
f on that orbit, and only orbits with a nonzero coefficient mod p are
expanded.  The symmetrization vanishes mod p for every k > 1 (checked by
full expansion, no closed form for F_k), while k = 1 gives T_1^{p-1}.  f has
degree <= p-k in k variables, so at most C(p, k) monomials; `f_poly`
refuses a (p, k) whose C(p, k) exceeds `MAX_TERMS`.

`taylor_cocycle_identity` checks that the truncated exponential of
sum_l z_l N_l (`trunc_exp`, the package's own) equals its multi-index
Taylor regrouping for commuting jointly-nilpotent matrices N_l; it first
checks that the N_l commute (`curvature`, which compares the products) and
are jointly nilpotent (`nilpotent_within`).  The regrouping is then the
product over l of E_l = sum_{k <= p-2} (z_l^k / k!) N_l^k, since every term
that product adds to it holds a product of p-1 of the N_l; the powers of
each N_l stop at the first zero one.  The seeded families q_l(N) of one
Jordan block N are built directly as upper-triangular Toeplitz matrices over
p shared constants, 0 to p-1.
`wilson_unit_check` verifies the derivative identity d^{p-1}(t^{p-1}) = -1
together with the rank-two model connection whose p-curvature realizes
that unit.
"""

from __future__ import annotations

import math
import random

from .atlas import Atlas, FrobLift
from .report import Report
from .ring import (
    LaurentPoly,
    PolyMatrix,
    PrimeContext,
    RingError,
    VarSpec,
    trunc_exp,
)
from .sheaves import FlatSheaf, curvature, nilpotent_within, p_curvature

MAX_TERMS = 20_000  # the most monomials, C(p, k), that f(p, k) may be expanded to


def _t_vars(k: int) -> VarSpec:
    return VarSpec.make([f"T{i}" for i in range(1, k + 1)])


def f_poly(p: int, k: int) -> LaurentPoly:
    """The tuple-sum polynomial in T_1..T_k, coefficients mod p.

    The tuples with a_1 + ... + a_k <= p-k give h_{p-k}(1, S_1, ..., S_k),
    built one S_m at a time by h[d] += S_m h[d-1] for d = 1..p-k, starting
    from h_d(1) = 1.  A (p, k) with C(p, k) > MAX_TERMS is refused.
    """
    PrimeContext(p)
    if not 1 <= k <= p - 1:
        raise RingError(f"k must satisfy 1 <= k <= p-1, got k={k}, p={p}")
    size = math.comb(p, k)
    if size > MAX_TERMS:
        raise RingError(
            f"f({p}, {k}) may have C({p}, {k}) = {size} monomials, "
            f"past the expansion limit {MAX_TERMS}"
        )
    vars = _t_vars(k)
    budget = p - k
    h = [LaurentPoly.one(vars, p)] * (budget + 1)
    s = h[0]
    for m in range(k, 0, -1):
        s = s + LaurentPoly.var(vars, p, f"T{m}")  # S_m = 1 + T_k + ... + T_m
        for d in range(1, budget + 1):
            h[d] = h[d] + s * h[d - 1]
    return h[budget]


def symmetrized_f(p: int, k: int) -> LaurentPoly:
    """Sum of f over all k! variable permutations T_i -> T_sigma(i), by orbits.

    Summed over the k! permutations, every rearrangement of a sorted exponent
    vector lambda gets |Stab(lambda)| times the sum of f's coefficients over
    the exponent vectors that sort to lambda.  Only orbits whose coefficient
    is nonzero mod p are expanded, into their distinct rearrangements.
    """
    base = f_poly(p, k)
    orbits: dict[tuple[int, ...], int] = {}
    for exps, c in base.coefficients.items():
        key = tuple(sorted(exps))
        orbits[key] = orbits.get(key, 0) + c
    total: dict[tuple[int, ...], int] = {}
    for lam, c in orbits.items():
        stabilizer = math.prod(math.factorial(lam.count(e)) for e in set(lam))
        coeff = c * stabilizer % p
        if coeff:
            for exps in _rearrangements(lam):
                total[exps] = coeff
    return LaurentPoly(base.vars, p, total)


def _rearrangements(lam: tuple[int, ...]):
    """The distinct rearrangements of a sorted tuple, in lexicographic order."""
    a = list(lam)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def verify_symmetrized_vanishing(p_list: list[int], k: int | None = None) -> Report:
    """F_k = 0 mod p for 2 <= k <= p-1; the k = 1 value is recorded only.

    A given k restricts the report to that k (its F_1 observation for k = 1).
    """
    report = Report()
    for p in p_list:
        PrimeContext(p)  # validates odd prime
        for kk in range(1, p) if k is None else (k,):
            fk = symmetrized_f(p, kk)
            if kk == 1:
                report.skip(f"F_1 observation (p={p})", f"F_1 = {fk}")
                continue
            report.add(
                f"F_{kk} = 0 mod {p}",
                fk.is_zero(),
                () if fk.is_zero() else (f"F_{kk} = {fk}",),
            )
    return report


# ---------- Taylor/cocycle expansion ----------


def taylor_cocycle_identity(
    ctx: PrimeContext,
    nilpotents: list[PolyMatrix],
    functions: list[LaurentPoly],
) -> bool:
    """trunc_exp(sum z_l N_l) == 1 + sum over multi-indices N^j z^j / j!."""
    p = ctx.p
    if len(nilpotents) != len(functions) or not nilpotents:
        raise RingError("need one coefficient function per nilpotent matrix")
    if curvature(nilpotents, nilpotents[0].vars, flat=False) is not None:
        raise RingError("matrices do not commute")
    if not nilpotent_within(nilpotents, p - 1):
        raise RingError(f"matrices are not jointly nilpotent of exponent <= {p - 1}")
    total = PolyMatrix.combine(zip(functions, nilpotents))
    return trunc_exp(total, ctx) == _taylor_sum(ctx, nilpotents, functions)


def _taylor_sum(
    ctx: PrimeContext, nilpotents: list[PolyMatrix], functions: list[LaurentPoly]
) -> PolyMatrix:
    """1 + sum over multi-indices j of weight 1..p-2 of N^j z^j / j!.

    For commuting N_l this is the product over l of the truncated
    exponentials E_l = sum_{k <= p-2} (z_l^k / k!) N_l^k, once every product
    of p-1 of the N_l is zero: the product adds to the regrouping exactly the
    terms of weight >= p-1, and each of them holds such a product.  The
    caller proves both facts; the powers of each N_l stop at the first zero
    one.
    """
    p, n = ctx.p, nilpotents[0].rows
    product = None
    for nl, z in zip(nilpotents, functions):
        pairs = [(1, PolyMatrix.identity(n, nl.vars, p))]
        power, zk = nl, z
        while len(pairs) < p - 1 and not power.is_zero():
            pairs.append((zk * ctx.inv_factorials[len(pairs)], power))
            power, zk = power @ nl, zk * z
        e_l = PolyMatrix.combine(pairs)
        product = e_l if product is None else product @ e_l
    return product


def commuting_nilpotent_family(
    ctx: PrimeContext, seed: int, count: int = 2
) -> tuple[list[PolyMatrix], list[LaurentPoly]]:
    """Seeded family {q_l(N)} for one Jordan block N, plus coefficient functions of degree <= 3.

    Zero constant terms in the q_l guarantee commutativity and the joint
    nilpotency bound (block size drawn from 2..p-1) cheaply.  q(N) =
    sum_{k >= 1} c_k N^k is the upper-triangular Toeplitz matrix with c_k
    on the k-th superdiagonal; its entries are p constants shared by the
    whole family, the zero one included, in one `PolyMatrix` per q_l.
    """
    p = ctx.p
    rng = random.Random(seed)
    size = rng.randint(2, p - 1)
    vars = VarSpec.make(["t"])
    consts = [LaurentPoly.const(vars, p, c) for c in range(p)]  # consts[0] is zero
    mats = []
    for _ in range(count):
        c = [0] + [rng.randrange(p) for _ in range(1, size)]
        mats.append(PolyMatrix(
            [consts[c[j - i] if j > i else 0] for j in range(size)] for i in range(size)
        ))
    funcs = [LaurentPoly(vars, p, {(e,): rng.randrange(p) for e in range(4)}) for _ in range(count)]
    return mats, funcs


# ---------- Wilson unit check ----------


def wilson_unit_check(p: int) -> Report:
    """d^{p-1}(t^{p-1}) = -1 and the model connection's unit p-curvature."""
    ctx = PrimeContext(p)
    report = Report()
    vars = VarSpec.make(["t"])
    poly = LaurentPoly.var(vars, p, "t", p - 1)
    for _ in range(p - 1):
        poly = poly.deriv("t")
    expected = LaurentPoly.const(vars, p, -1)
    report.add(
        f"d^{p - 1}(t^{p - 1}) = -1 mod {p}",
        poly == expected,
        () if poly == expected else (f"got {poly}",),
    )
    # the model pairing a function part with a pulled-back form part: with the
    # standard lifting t -> t^p the connection matrix is t^(p-1) * E_12 and
    # p-fold application must return -E_12.
    atlas = Atlas(ctx)
    atlas.add_chart("A1", vars)
    atlas.add_lift(FrobLift("A1", {"t": LaurentPoly.var(vars, ctx.p2, "t", p)}))
    a_mat = PolyMatrix(
        [
            [LaurentPoly.zero(vars, p), LaurentPoly.var(vars, p, "t", p - 1)],
            [LaurentPoly.zero(vars, p), LaurentPoly.zero(vars, p)],
        ]
    )
    model = FlatSheaf(atlas, 2, {"A1": [a_mat]})
    psi = p_curvature(model)
    e12 = PolyMatrix.from_int_rows([[0, 1], [0, 0]], vars, p)
    ok = psi.comps["A1"][0] == -e12
    report.add(
        f"model p-curvature is the negative unit (p={p})",
        ok,
        () if ok else (f"psi = {psi.comps['A1'][0]}",),
    )
    return report
