"""Brute-force verifiers for the combinatorial identities behind the gluing.

`f_poly(p, k)` enumerates natural tuples (a_1, ..., a_k) with sum <= p - k
and sums the products

    (1 + T_k)^{a_k} (1 + T_k + T_{k-1})^{a_{k-1}} ... (1 + T_k + ... + T_1)^{a_1}

mod p; `symmetrized_f` sums f over all k! variable permutations, adding the
permuted terms into one dict.  The symmetrization vanishes mod p for every
k > 1 (checked by full expansion, no closed form), while k = 1 gives
T_1^{p-1}.

`taylor_cocycle_identity` checks that the truncated exponential of
sum_l z_l N_l equals its multi-index Taylor regrouping for commuting
jointly-nilpotent matrices N_l.  The regrouping walks the multi-indices
depth-first over power tables that stop at the first zero power, so a
prefix of too much weight or with a zero product is not extended.  Both
sides' sums (sum_l z_l N_l, and the regrouping's terms N^j z^j / j!) are
one `PolyMatrix.combine` each, accumulated on one grid of term dicts.  The
seeded families q_l(N) of one Jordan block N are built directly as
upper-triangular Toeplitz matrices, whose zero entries share one zero.
`wilson_unit_check` verifies the derivative identity d^{p-1}(t^{p-1}) = -1
together with the rank-two model connection whose p-curvature realizes
that unit.
"""

from __future__ import annotations

import itertools
import operator
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

MAX_K = 8  # k! symmetrization guard


def _t_vars(k: int) -> VarSpec:
    return VarSpec.make([f"T{i}" for i in range(1, k + 1)])


def f_poly(p: int, k: int) -> LaurentPoly:
    """The tuple-sum polynomial in T_1..T_k, coefficients mod p."""
    ctx = PrimeContext(p)
    if not 1 <= k <= p - 1:
        raise RingError(f"k must satisfy 1 <= k <= p-1, got k={k}, p={p}")
    vars = _t_vars(k)
    one = LaurentPoly.one(vars, p)
    # S[m] = 1 + T_k + T_{k-1} + ... + T_m  (index m runs 1..k)
    s_factors: dict[int, LaurentPoly] = {}
    acc = one
    for m in range(k, 0, -1):
        acc = acc + LaurentPoly.var(vars, p, f"T{m}")
        s_factors[m] = acc
    budget = p - k
    powers: dict[int, list[LaurentPoly]] = {}
    for m, s in s_factors.items():
        pows = [one]
        for _ in range(budget):
            pows.append(pows[-1] * s)
        powers[m] = pows
    total = LaurentPoly.zero(vars, p)
    for tup in itertools.product(range(budget + 1), repeat=k):
        if sum(tup) > budget:
            continue
        term = one
        for m, a in enumerate(tup, start=1):
            if a:
                term = term * powers[m][a]
        total = total + term
    return total


def symmetrized_f(p: int, k: int) -> LaurentPoly:
    """Sum of f over all k! variable permutations T_i -> T_sigma(i), in one dict."""
    if k > MAX_K:
        raise RingError(f"k={k} exceeds the permutation-enumeration cap {MAX_K}")
    base = f_poly(p, k)
    terms = base.terms.items()
    total: dict[tuple[int, ...], int] = {}
    get = total.get
    for sigma in itertools.permutations(range(k)):
        # T_i -> T_sigma(i) moves exponent position i to sigma(i)
        inverse = sorted(range(k), key=sigma.__getitem__)
        for exps, c in terms:
            key = tuple([exps[i] for i in inverse])
            total[key] = get(key, 0) + c
    return LaurentPoly._make(base.vars, p, total)


def verify_symmetrized_vanishing(p_list: list[int]) -> Report:
    """F_k = 0 mod p for 2 <= k <= p-1; the k = 1 value is recorded only."""
    report = Report()
    for p in p_list:
        PrimeContext(p)  # validates odd prime
        f1 = symmetrized_f(p, 1)
        report.skip(f"F_1 observation (p={p})", f"F_1 = {f1}")
        for k in range(2, p):
            fk = symmetrized_f(p, k)
            report.add(
                f"F_{k} = 0 mod {p}",
                fk.is_zero(),
                () if fk.is_zero() else (f"F_{k} = {fk}",),
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


def _powers(x, top: int, times) -> list:
    """[x, x^2, ..., x^top] under the product `times`, cut before the first zero power."""
    out = [x]
    while len(out) < top and not out[-1].is_zero():
        out.append(times(out[-1], x))
    return out[:-1] if out[-1].is_zero() else out


def _taylor_sum(
    ctx: PrimeContext, nilpotents: list[PolyMatrix], functions: list[LaurentPoly]
) -> PolyMatrix:
    """1 + sum over multi-indices j of weight 1..p-2 of N^j z^j / j!.

    The multi-indices are walked depth-first, one coordinate l at a time,
    extending the products N^j and z^j of the prefix; a prefix whose weight
    reaches p-2 or whose product is zero has no further nonzero extensions.
    """
    p = ctx.p
    vars, n = nilpotents[0].vars, nilpotents[0].rows
    top = p - 2
    mat_powers = [_powers(nl, top, operator.matmul) for nl in nilpotents]
    fn_powers = [_powers(z, top, operator.mul) for z in functions]
    inv_fact = ctx.inv_factorials
    d = len(nilpotents)
    terms = [(1, PolyMatrix.identity(n, vars, p))]

    def walk(l: int, weight: int, mat, scalar, coeff: int) -> None:
        if l == d:
            if weight:
                terms.append((scalar * coeff, mat))
            return
        walk(l + 1, weight, mat, scalar, coeff)  # j_l = 0
        for jl, (mp, fp) in enumerate(zip(mat_powers[l], fn_powers[l]), start=1):
            if weight + jl > top:
                break
            m = mp if mat is None else mat @ mp
            z = fp if scalar is None else scalar * fp
            if m.is_zero() or z.is_zero():
                break  # every higher power of N_l or z_l extends this zero
            walk(l + 1, weight + jl, m, z, coeff * inv_fact[jl] % p)

    walk(0, 0, None, None, 1)
    return PolyMatrix.combine(terms)


def commuting_nilpotent_family(
    ctx: PrimeContext, seed: int, count: int = 2
) -> tuple[list[PolyMatrix], list[LaurentPoly]]:
    """Seeded family {q_l(N)} for one Jordan block N, plus coefficient functions of degree <= 3.

    Zero constant terms in the q_l guarantee commutativity and the joint
    nilpotency bound (block size drawn from 2..p-1) cheaply.  q(N) =
    sum_{k >= 1} c_k N^k is the upper-triangular Toeplitz matrix with c_k
    on the k-th superdiagonal.
    """
    p = ctx.p
    rng = random.Random(seed)
    size = rng.randint(2, p - 1)
    vars = VarSpec.make(["t"])
    mats = []
    for _ in range(count):
        c = [0] + [rng.randrange(p) for _ in range(1, size)]
        mats.append(PolyMatrix.from_int_rows(
            [[c[j - i] if j > i else 0 for j in range(size)] for i in range(size)], vars, p
        ))
    funcs = [
        LaurentPoly._make(vars, p, {(e,): rng.randrange(p) for e in range(4)})
        for _ in range(count)
    ]
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
