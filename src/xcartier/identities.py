"""Brute-force verifiers for the combinatorial identities behind the gluing.

`f_poly(p, k)` enumerates natural tuples (a_1, ..., a_k) with sum <= p - k
and sums the products

    (1 + T_k)^{a_k} (1 + T_k + T_{k-1})^{a_{k-1}} ... (1 + T_k + ... + T_1)^{a_1}

mod p; `symmetrized_f` sums f over all k! variable permutations.  The
symmetrization vanishes mod p for every k > 1 (checked by full expansion,
no closed form), while k = 1 gives T_1^{p-1}.

`taylor_cocycle_identity` checks that the truncated exponential of
sum_l z_l N_l equals its multi-index Taylor regrouping for commuting
jointly-nilpotent matrices N_l, and `wilson_unit_check` verifies the
derivative identity d^{p-1}(t^{p-1}) = -1 together with the rank-two model
connection whose p-curvature realizes that unit.
"""

from __future__ import annotations

import itertools
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
from .sheaves import FlatSheaf, curvature, nilpotency_exponent, p_curvature

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


def _permute_vars(poly: LaurentPoly, perm: tuple[int, ...]) -> LaurentPoly:
    """Send T_i -> T_{perm[i]} by permuting exponent positions."""
    out: dict[tuple[int, ...], int] = {}
    for exps, c in poly.terms.items():
        new = [0] * len(exps)
        for pos, e in enumerate(exps):
            new[perm[pos]] = e
        key = tuple(new)
        out[key] = (out.get(key, 0) + c) % poly.modulus
    return LaurentPoly(poly.vars, poly.modulus, out)


def symmetrized_f(p: int, k: int) -> LaurentPoly:
    """Sum of f over all k! variable permutations."""
    if k > MAX_K:
        raise RingError(f"k={k} exceeds the permutation-enumeration cap {MAX_K}")
    base = f_poly(p, k)
    total = LaurentPoly.zero(base.vars, p)
    for sigma in itertools.permutations(range(k)):
        total = total + _permute_vars(base, sigma)
    return total


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
    n = nilpotents[0].rows
    if nilpotency_exponent(nilpotents, p - 1) is None:
        raise RingError(f"matrices are not jointly nilpotent of exponent <= {p - 1}")
    total = PolyMatrix.zero(n, n, nilpotents[0].vars, p)
    for nl, z in zip(nilpotents, functions):
        total = total + nl.scale(z)
    lhs = trunc_exp(total, ctx)

    # N_l^k and z_l^k for k <= p-2, computed once per family
    vars = nilpotents[0].vars
    mat_powers, fn_powers = [], []
    for nl, z in zip(nilpotents, functions):
        mats = [PolyMatrix.identity(n, vars, p)]
        fns = [LaurentPoly.one(vars, p)]
        for _ in range(p - 2):
            mats.append(mats[-1] @ nl)
            fns.append(fns[-1] * z)
        mat_powers.append(mats)
        fn_powers.append(fns)

    rhs = PolyMatrix.identity(n, vars, p)
    d = len(nilpotents)
    for j in itertools.product(range(p - 1), repeat=d):
        weight = sum(j)
        if not 1 <= weight <= p - 2:
            continue
        coeff = 1
        for jl in j:
            coeff = coeff * ctx.inv_factorials[jl] % p
        mat = None
        scalar = LaurentPoly.const(vars, p, coeff)
        for l, jl in enumerate(j):
            if jl:
                mat = mat_powers[l][jl] if mat is None else mat @ mat_powers[l][jl]
                scalar = scalar * fn_powers[l][jl]
        rhs = rhs + mat.scale(scalar)
    return lhs == rhs


def commuting_nilpotent_family(
    ctx: PrimeContext, seed: int, count: int = 2
) -> tuple[list[PolyMatrix], list[LaurentPoly]]:
    """Seeded family {q_l(N)} for one Jordan block N, plus coefficient functions of degree <= 3.

    Zero constant terms in the q_l guarantee commutativity and the joint
    nilpotency bound (block size drawn from 2..p-1) cheaply.
    """
    p = ctx.p
    rng = random.Random(seed)
    size = rng.randint(2, p - 1)
    vars = VarSpec.make(["t"])
    shift = PolyMatrix.from_int_rows(
        [[1 if j == i + 1 else 0 for j in range(size)] for i in range(size)], vars, p
    )
    mats = []
    for _ in range(count):
        acc = PolyMatrix.zero(size, size, vars, p)
        power = shift
        for _ in range(1, size):
            acc = acc + power.scale(rng.randrange(p))
            power = power @ shift
        mats.append(acc)
    funcs = [
        LaurentPoly(vars, p, {(e,): rng.randrange(p) for e in range(4)})
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
