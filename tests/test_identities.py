import itertools
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from xcartier import acceptance, identities
from xcartier.identities import (
    _taylor_sum,
    commuting_nilpotent_family,
    f_poly,
    symmetrized_f,
    taylor_cocycle_identity,
    verify_symmetrized_vanishing,
    wilson_unit_check,
)
from xcartier.ring import LaurentPoly, PolyMatrix, PrimeContext, RingError, VarSpec


def tvars(k):
    return VarSpec.make([f"T{i}" for i in range(1, k + 1)])


# ---------------------------------------------------------------- f and F


def test_f_p3_k2_by_hand():
    # tuples (0,0), (1,0), (0,1): 1 + (1+T2+T1) + (1+T2) = 3 + T1 + 2 T2
    assert f_poly(3, 2) == LaurentPoly.parse("T1 + 2*T2", tvars(2), 3)


def test_f_p3_k1_by_hand():
    # 1 + (1+T1) + (1+T1)^2 = 3 + 3 T1 + T1^2
    assert f_poly(3, 1) == LaurentPoly.parse("T1^2", tvars(1), 3)


def f_by_tuples(p, k):
    """The reference: one product chain per tuple (a_1, ..., a_k) with sum <= p - k."""
    vars = tvars(k)
    one = LaurentPoly.one(vars, p)
    s_factors, acc = {}, one  # S_m = 1 + T_k + T_{k-1} + ... + T_m
    for m in range(k, 0, -1):
        acc = acc + LaurentPoly.var(vars, p, f"T{m}")
        s_factors[m] = acc
    budget = p - k
    powers = {}
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


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_f_poly_matches_the_tuple_reference(p):
    ks = [k for k in range(1, p) if math.comb(p, k) <= identities.MAX_TERMS]
    assert ks == list(range(1, p))  # the bound admits every k at p <= 13
    for k in ks:
        assert f_poly(p, k) == f_by_tuples(p, k)


def test_f_top_k_only_low_tuples():
    # k = p-1 leaves budget 1: k+1 tuples, each factor degree <= 1
    f = f_poly(5, 4)
    assert max(sum(e) for e in f.terms) <= 1 or f.is_zero()


def test_symmetrized_p3_k2_vanishes_by_hand():
    # (T1 + 2T2) + (T2 + 2T1) = 3(T1 + T2) = 0
    assert symmetrized_f(3, 2).is_zero()


def test_symmetrized_k1_is_not_zero():
    assert symmetrized_f(3, 1) == LaurentPoly.parse("T1^2", tvars(1), 3)
    assert symmetrized_f(5, 1) == LaurentPoly.parse("T1^4", tvars(1), 5)


def test_symmetrized_p5_k3_vanishes():
    assert symmetrized_f(5, 3).is_zero()


def test_symmetrized_p7_k6_vanishes():
    assert symmetrized_f(7, 6).is_zero()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_statement_all_k(p):
    rep = verify_symmetrized_vanishing([p])
    assert rep.ok()
    checked = [e for e in rep.entries if e.status == "pass"]
    assert len(checked) == p - 2  # k = 2 .. p-1


def test_symmetrized_is_symmetric():
    f = symmetrized_f(5, 3)
    for sigma in itertools.permutations(range(3)):
        permuted = {}
        for exps, c in f.terms.items():
            new = [0] * 3
            for pos, e in enumerate(exps):
                new[sigma[pos]] = e
            permuted[tuple(new)] = c
        assert LaurentPoly(f.vars, 5, permuted) == f


def symmetrized_by_additions(base, k):
    """The reference: base summed over the k! permutations, one polynomial addition each."""
    total = LaurentPoly.zero(base.vars, base.modulus)
    for sigma in itertools.permutations(range(k)):
        permuted = {}
        for exps, c in base.terms.items():
            new = [0] * k
            for pos, e in enumerate(exps):
                new[sigma[pos]] = e
            permuted[tuple(new)] = c
        total = total + LaurentPoly(base.vars, base.modulus, permuted)
    return total


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_symmetrized_f_matches_the_addition_reference(monkeypatch, p):
    ks = range(1, min(p, 7))  # k <= 6: the reference makes k! additions
    for k in ks:
        assert symmetrized_f(p, k) == symmetrized_by_additions(f_poly(p, k), k)
    # f symmetrizes to zero for k > 1; an asymmetric base checks the sum itself
    rng = random.Random(p)
    for k in ks[1:]:
        base = f_poly(p, k) + LaurentPoly(tvars(k), p, {
            tuple(rng.randrange(3) for _ in range(k)): rng.randrange(1, p) for _ in range(3)
        })
        monkeypatch.setattr(identities, "f_poly", lambda p, k: base)
        got = symmetrized_f(p, k)
        assert got == symmetrized_by_additions(base, k) and not got.is_zero()


def test_k_out_of_range():
    with pytest.raises(RingError):
        f_poly(5, 5)
    with pytest.raises(RingError):
        f_poly(5, 0)
    with pytest.raises(RingError):
        symmetrized_f(23, 9)  # C(23, 9) = 817190 monomials, past MAX_TERMS


def test_expansion_limit_names_the_size():
    assert identities.MAX_TERMS == 20_000
    symmetrized_f(17, 7)  # C(17, 7) = 19448
    with pytest.raises(RingError, match=r"f\(17, 8\) may have C\(17, 8\) = 24310 monomials"):
        symmetrized_f(17, 8)


def test_symmetrized_f_expands_only_orbits_with_a_nonzero_coefficient(monkeypatch):
    expanded = []
    rearrangements = identities._rearrangements
    monkeypatch.setattr(identities, "_rearrangements",
                        lambda lam: expanded.append(lam) or rearrangements(lam))
    assert symmetrized_f(7, 4).is_zero()
    assert expanded == []
    # T1 T2^2: one orbit of 3 rearrangements, stabilizer 1
    base = LaurentPoly.parse("T1*T2^2", tvars(3), 7)
    monkeypatch.setattr(identities, "f_poly", lambda p, k: base)
    assert symmetrized_f(7, 3) == LaurentPoly.parse(
        "T1*T2^2 + T1^2*T2 + T1*T3^2 + T1^2*T3 + T2*T3^2 + T2^2*T3", tvars(3), 7)
    assert expanded == [(0, 1, 2)]


def test_symmetrized_vanishing_for_one_k():
    rep = verify_symmetrized_vanishing([11], 9)
    assert [(e.check, e.status) for e in rep.entries] == [("F_9 = 0 mod 11", "pass")]
    rep = verify_symmetrized_vanishing([5], 1)
    assert [(e.check, e.status, e.witness) for e in rep.entries] == [
        ("F_1 observation (p=5)", "skip", ("F_1 = T1^4",))]


# ---------------------------------------------------------------- Taylor


def e_mat(i, j, n, vars, p):
    return PolyMatrix.from_int_rows(
        [[1 if (a, b) == (i, j) else 0 for b in range(n)] for a in range(n)], vars, p
    )


def test_taylor_single_square_zero():
    ctx = PrimeContext(3)
    vars = VarSpec.make(["t"])
    n = e_mat(0, 1, 2, vars, 3)
    z = LaurentPoly.parse("t", vars, 3)
    assert taylor_cocycle_identity(ctx, [n], [z])


def test_taylor_two_commuting_p5():
    ctx = PrimeContext(5)
    vars = VarSpec.make(["t"])
    n1 = e_mat(0, 1, 3, vars, 5)
    n2 = e_mat(0, 2, 3, vars, 5)
    z1 = LaurentPoly.parse("t", vars, 5)
    z2 = LaurentPoly.parse("t^2", vars, 5)
    assert taylor_cocycle_identity(ctx, [n1, n2], [z1, z2])


def test_taylor_rejects_non_commuting():
    ctx = PrimeContext(5)
    vars = VarSpec.make(["t"])
    n1 = e_mat(0, 1, 3, vars, 5)
    n2 = e_mat(1, 2, 3, vars, 5)
    z = LaurentPoly.parse("t", vars, 5)
    with pytest.raises(RingError, match="commute"):
        taylor_cocycle_identity(ctx, [n1, n2], [z, z])


def test_taylor_rejects_joint_nilpotency_violation():
    ctx = PrimeContext(3)
    vars = VarSpec.make(["t"])
    n = e_mat(0, 1, 3, vars, 3) + e_mat(1, 2, 3, vars, 3)  # n^2 != 0
    z = LaurentPoly.parse("t", vars, 3)
    with pytest.raises(RingError, match="nilpotent"):
        taylor_cocycle_identity(ctx, [n], [z])


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_taylor_on_seeded_families(seed):
    for p in (3, 5):
        ctx = PrimeContext(p)
        mats, funcs = commuting_nilpotent_family(ctx, seed=seed, count=2)
        assert taylor_cocycle_identity(ctx, mats, funcs)


def criterion_8_families():
    """The 100 (ctx, matrices, functions) of acceptance.criterion_8, in its order."""
    for p in (3, 5):
        ctx = PrimeContext(p)
        for seed in range(50):
            count = random.Random(seed * 1009 + p).randint(1, 3)
            yield (ctx, *commuting_nilpotent_family(ctx, seed=seed * 31 + p, count=count))


def taylor_sum_by_product_loop(ctx, nilpotents, functions):
    """The reference: every multi-index in itertools.product, all powers up to p-2."""
    p, vars, n = ctx.p, nilpotents[0].vars, nilpotents[0].rows
    mat_powers, fn_powers = [], []
    for nl, z in zip(nilpotents, functions):
        mats, fns = [PolyMatrix.identity(n, vars, p)], [LaurentPoly.one(vars, p)]
        for _ in range(p - 2):
            mats.append(mats[-1] @ nl)
            fns.append(fns[-1] * z)
        mat_powers.append(mats)
        fn_powers.append(fns)
    rhs = PolyMatrix.identity(n, vars, p)
    for j in itertools.product(range(p - 1), repeat=len(nilpotents)):
        if not 1 <= sum(j) <= p - 2:
            continue
        mat = PolyMatrix.identity(n, vars, p)
        scalar = LaurentPoly.one(vars, p)
        for l, jl in enumerate(j):
            mat = mat @ mat_powers[l][jl]
            scalar = scalar * fn_powers[l][jl] * ctx.inv_factorials[jl]
        rhs = rhs + mat.scale(scalar)
    return rhs


def test_taylor_sum_matches_the_product_loop_on_the_criterion_8_families():
    count = 0
    for ctx, mats, funcs in criterion_8_families():
        assert _taylor_sum(ctx, mats, funcs) == taylor_sum_by_product_loop(ctx, mats, funcs)
        count += 1
    assert count == 100
    # at p = 7 blocks of size up to 6 carry terms of weight up to 5, and the
    # terms of weight >= 6 vanish only by joint nilpotency
    ctx, shapes = PrimeContext(7), set()
    for seed in range(30):
        count = random.Random(seed * 1009 + 7).randint(1, 3)
        mats, funcs = commuting_nilpotent_family(ctx, seed=seed * 31 + 7, count=count)
        assert _taylor_sum(ctx, mats, funcs) == taylor_sum_by_product_loop(ctx, mats, funcs)
        shapes.add((mats[0].rows, count))
    assert {(6, 2), (6, 3)} <= shapes


def test_criterion_8_fails_a_taylor_sum_without_the_factorials(monkeypatch):
    taylor_sum = identities._taylor_sum

    def without_factorials(ctx, mats, funcs):
        return taylor_sum(SimpleNamespace(p=ctx.p, inv_factorials=(1,) * ctx.p), mats, funcs)

    monkeypatch.setattr(identities, "_taylor_sum", without_factorials)
    failed = [e.check for e in acceptance.criterion_8().failures()]
    # at p = 3 every weight is at most 1, where 1/j! = 1
    assert failed == ["c8: Taylor regrouping for 50 seeded families (p=5)"]


def family_by_power_sums(ctx, seed, count):
    """The reference family: q(N) = sum_k c_k N^k by scaled powers of the shift N."""
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
    funcs = [LaurentPoly(vars, p, {(e,): rng.randrange(p) for e in range(4)}) for _ in range(count)]
    return mats, funcs


def test_commuting_nilpotent_family_matches_the_power_sums():
    for p in (3, 5):
        ctx = PrimeContext(p)
        for seed in range(50):
            count = random.Random(seed * 1009 + p).randint(1, 3)
            got = commuting_nilpotent_family(ctx, seed=seed * 31 + p, count=count)
            assert got == family_by_power_sums(ctx, seed * 31 + p, count)


# ---------------------------------------------------------------- Wilson


@pytest.mark.parametrize("p,value", [(3, 2), (5, 24 % 5), (7, 720 % 7)])
def test_wilson_values(p, value):
    assert value == p - 1  # (p-1)! = -1
    assert wilson_unit_check(p).ok()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_wilson_all_small_primes(p):
    assert wilson_unit_check(p).ok()
