import functools
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from xcartier import sheaves, transforms
from xcartier.atlas import Atlas, FrobLift, Overlap
from xcartier.gallery import GALLERY_NAMES, gallery
from xcartier.identities import commuting_nilpotent_family
from xcartier.ring import LaurentPoly, PolyMatrix, PrimeContext, VarSpec, is_prime, jacobian
from xcartier.scene import Scene, emit_scene
from xcartier.sheaves import (
    FlatSheaf,
    HiggsSheaf,
    check_flat,
    check_higgs,
    curvature,
    intertwining_residuals,
    PCurvature,
    nilpotency_exponent,
    nilpotent_within,
    p_curvature,
    pull_back,
    support_depth,
    verify_p_curvature_invariants,
)
from xcartier.transforms import cartier, inverse_cartier, verify_gauge_witness

T = VarSpec.make(["t"])


def a1_atlas(p=3):
    ctx = PrimeContext(p)
    atlas = Atlas(ctx)
    atlas.add_chart("A1", T)
    atlas.add_lift(FrobLift("A1", {"t": LaurentPoly.var(T, ctx.p2, "t", p)}))
    atlas.validate()
    return atlas


def a2_atlas(p=3):
    ctx = PrimeContext(p)
    vars = VarSpec.make(["t1", "t2"])
    atlas = Atlas(ctx)
    atlas.add_chart("A2", vars)
    atlas.add_lift(FrobLift("A2", {
        "t1": LaurentPoly.var(vars, ctx.p2, "t1", p),
        "t2": LaurentPoly.var(vars, ctx.p2, "t2", p),
    }))
    atlas.validate()
    return atlas


def e_mat(i, j, n, vars, p):
    return PolyMatrix.from_int_rows(
        [[1 if (a, b) == (i, j) else 0 for b in range(n)] for a in range(n)], vars, p
    )


def jordan_block(rank, vars, modulus):
    return PolyMatrix.from_int_rows(
        [[1 if j == i + 1 else 0 for j in range(rank)] for i in range(rank)], vars, modulus)


# ---------------------------------------------------------------- Higgs checks


def test_zero_field_passes_with_exponent_one():
    atlas = a1_atlas()
    for rank in (1, 2, 3):
        E = HiggsSheaf(atlas, rank, {"A1": [PolyMatrix.zero(rank, rank, T, 3)]})
        assert check_higgs(E).ok()
        assert max(nilpotency_exponent(m, 2) for m in E.fields.values()) == 1


def test_rank2_constant_field_exponent_two():
    atlas = a1_atlas()
    E = HiggsSheaf(atlas, 2, {"A1": [e_mat(0, 1, 2, T, 3)]})
    assert check_higgs(E).ok()
    assert max(nilpotency_exponent(m, 2) for m in E.fields.values()) == 2


def test_non_integrable_pair_fails_with_witness():
    atlas = a2_atlas()
    vars = atlas.chart_vars("A2")
    # E_12 and E_23 do not commute: [E_12, E_23] = E_13
    E = HiggsSheaf(atlas, 3, {"A2": [e_mat(0, 1, 3, vars, 3), e_mat(1, 2, 3, vars, 3)]})
    rep = check_higgs(E)
    assert not rep.ok()
    fails = [e for e in rep.failures() if "integrability" in e.check]
    assert fails and fails[0].witness


def test_gallery_g5_higgs_gluing_passes():
    assert check_higgs(gallery("g5_p1_uniformizing", 3).sheaf).ok()


def test_broken_gluing_detected():
    scene = gallery("g5_p1_uniformizing", 3)
    E = scene.sheaf
    bad_fields = dict(E.fields)
    bad_fields["U1"] = [-E.fields["U1"][0]]  # flip one side's sign
    bad = HiggsSheaf(E.atlas, 2, bad_fields, E.transitions)
    rep = check_higgs(bad)
    assert any("field gluing" in e.check for e in rep.failures())


# ---------------------------------------------------------------- flat checks


def test_trivial_connection_flat():
    atlas = a1_atlas()
    H = FlatSheaf(atlas, 2, {"A1": [PolyMatrix.zero(2, 2, T, 3)]})
    assert check_flat(H).ok()


def test_single_variable_connection_always_flat():
    atlas = a1_atlas()
    a = e_mat(0, 1, 2, T, 3).scale(LaurentPoly.parse("t^2", T, 3))
    H = FlatSheaf(atlas, 2, {"A1": [a]})
    assert check_flat(H).ok()


def test_two_variable_curvature_failure():
    atlas = a2_atlas()
    vars = atlas.chart_vars("A2")
    t2_id = PolyMatrix.identity(1, vars, 3).scale(LaurentPoly.parse("t2", vars, 3))
    H = FlatSheaf(atlas, 1, {"A2": [t2_id, PolyMatrix.zero(1, 1, vars, 3)]})
    rep = check_flat(H)
    assert not rep.ok()
    assert any("curvature" in e.check for e in rep.failures())


# ---------------------------------------------------------------- p-curvature


def test_p_curvature_of_plain_derivative_is_zero():
    atlas = a1_atlas()
    H = FlatSheaf(atlas, 1, {"A1": [PolyMatrix.zero(1, 1, T, 3)]})
    assert p_curvature(H).is_zero()


def test_p_curvature_three_fold_application():
    atlas = a1_atlas()
    a = e_mat(0, 1, 2, T, 3).scale(LaurentPoly.parse("t^2", T, 3))
    H = FlatSheaf(atlas, 2, {"A1": [a]})
    psi = p_curvature(H)
    assert psi.comps["A1"][0] == -e_mat(0, 1, 2, T, 3)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_rank_one_torus_p_curvature_matches_jacobson(p):
    # independent oracle: a^p + d^(p-1)(a) for the 1x1 connection a = c/t
    scene = gallery("g7_gm_rank1", p, c=1)
    vars = scene.atlas.chart_vars("Gm")
    for c in range(p):
        a = LaurentPoly.monomial(vars, p, c, (-1,))
        oracle = a.frobenius()
        der = a
        for _ in range(p - 1):
            der = der.deriv("t")
        oracle = oracle + der
        H = FlatSheaf(scene.atlas, 1, {"Gm": [PolyMatrix([[a]])]})
        psi = p_curvature(H)
        assert psi.comps["Gm"][0] == PolyMatrix([[oracle]])
        assert oracle.is_zero()  # Fermat: c^p - c = 0


def test_p_curvature_invariants_reject_a_non_commuting_psi():
    # constants are horizontal for the zero connection, but E_12 and E_21 do not commute
    atlas = a2_atlas()
    vars = atlas.chart_vars("A2")
    H = FlatSheaf(atlas, 2, {"A2": [PolyMatrix.zero(2, 2, vars, 3)] * 2})
    psi = PCurvature(2, {"A2": [e_mat(0, 1, 2, vars, 3), e_mat(1, 0, 2, vars, 3)]})
    rep = verify_p_curvature_invariants(H, psi)
    assert [e.check for e in rep.failures()] == ["psi commutativity[A2]"]


def test_p_curvature_invariants_reject_a_non_horizontal_psi():
    # t * E_12 is not killed by d, so it is not horizontal for the zero connection
    atlas = a1_atlas()
    H = FlatSheaf(atlas, 2, {"A1": [PolyMatrix.zero(2, 2, T, 3)]})
    psi = PCurvature(2, {"A1": [e_mat(0, 1, 2, T, 3).scale(LaurentPoly.var(T, 3, "t"))]})
    rep = verify_p_curvature_invariants(H, psi)
    assert [e.check for e in rep.failures()] == ["psi horizontality[A1]"]


def test_nilpotency_exponent_monomials():
    vars = VarSpec.make(["t1", "t2"])
    mats = [e_mat(0, 1, 3, vars, 5), e_mat(0, 2, 3, vars, 5)]
    assert nilpotency_exponent(mats, 4) == 2


def exhaustive_nilpotency_exponent(mats, max_n):
    """The reference: every degree-n monomial rebuilt from scratch at each n."""
    for n in range(1, max_n + 1):
        all_zero = True
        for combo in itertools.combinations_with_replacement(range(len(mats)), n):
            prod = mats[combo[0]]
            for k in combo[1:]:
                prod = prod @ mats[k]
                if prod.is_zero():
                    break
            if not prod.is_zero():
                all_zero = False
                break
        if all_zero:
            return n
    return None


def seeded_jordan_fields(p, names, rank, seed):
    """theta_i = sum_k c_ik N^k for one Jordan block N, seeded c_ik of degree <= 1."""
    rng = random.Random(seed)
    vars = VarSpec.make(names)
    shifts = [PolyMatrix.from_int_rows(
        [[1 if j == i + k else 0 for j in range(rank)] for i in range(rank)], vars, p
    ) for k in range(1, rank)]
    monomials = [e for e in itertools.product(range(2), repeat=len(names)) if sum(e) <= 1]
    fields = []
    for _ in names:
        acc = PolyMatrix.zero(rank, rank, vars, p)
        for n_k in shifts:
            acc = acc + n_k.scale(LaurentPoly(vars, p, {e: rng.randrange(p) for e in monomials}))
        fields.append(acc)
    return fields


def nilpotency_families():
    for p in (3, 5, 7):
        for name in GALLERY_NAMES:
            scene = gallery(name, p)
            if isinstance(scene.sheaf, HiggsSheaf):
                yield from scene.sheaf.fields.values()
                yield from p_curvature(inverse_cartier(scene.sheaf)).comps.values()
            else:
                yield from p_curvature(scene.sheaf).comps.values()
        ctx = PrimeContext(p)
        for seed in range(6):
            names = ["t", "u", "v"][:seed % 3 + 1]
            yield seeded_jordan_fields(p, names, 2 + seed % p, seed)
            yield commuting_nilpotent_family(ctx, seed=seed, count=seed % 3 + 1)[0]
        yield [e_mat(0, 1, 3, T, p), e_mat(1, 2, 3, T, p), e_mat(1, 0, 3, T, p)]  # not nilpotent


def test_nilpotency_exponent_matches_the_exhaustive_reference():
    count = 0
    for mats in nilpotency_families():
        p = mats[0].modulus
        for max_n in range(p + 2):
            assert nilpotency_exponent(mats, max_n) == exhaustive_nilpotency_exponent(mats, max_n)
        count += 1
    assert count == 90


def count_scans(monkeypatch):
    """Record the bound of every nilpotency_exponent scan made from sheaves."""
    scans = []
    scan = sheaves.nilpotency_exponent
    monkeypatch.setattr(sheaves, "nilpotency_exponent",
                        lambda mats, max_n: scans.append(max_n) or scan(mats, max_n))
    return scans


def boolean_depth(mats):
    """The reference for `support_depth`, from powers of the support matrix.

    S[i][j] holds when some matrix has entry (i, j) != 0, and the boolean
    power S^k holds the paths of k edges: None when S^n != 0 (a cycle), else
    the largest k with S^k != 0.
    """
    n = mats[0].rows
    s = [[any(not m.entries[i][j].is_zero() for m in mats) for j in range(n)] for i in range(n)]
    power, depth = s, 0
    while any(map(any, power)):
        depth += 1
        if depth == n:
            return None
        power = [[any(power[i][k] and s[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
    return depth


def expected_step(mats, bound):
    """The step of nilpotent_within that decides, from the reference depth:
    the graph, then the squarings of a mod-p family of rank <= bound, then
    the scan."""
    depth = boolean_depth(mats)
    if depth is not None and depth + 1 <= bound:
        return "graph"
    return "squarings" if mats[0].rows <= bound and is_prime(mats[0].modulus) else "scan"


def decided_by(scans, matmul, mats, bound, want):
    """Check nilpotent_within's verdict and that the expected step decided:
    the graph makes no `@` and no scan, the squarings no scan and (above
    rank one) some `@`, and the scan one scan at the bound."""
    scans.clear()
    matmul.clear()
    assert nilpotent_within(mats, bound) == want
    step = expected_step(mats, bound)
    assert scans == ([bound] if step == "scan" else [])
    if step == "graph":
        assert matmul == []
    elif step == "squarings":
        assert matmul or mats[0].rows == 1
    return step


def test_nilpotent_within_matches_the_exhaustive_reference(monkeypatch):
    scans = count_scans(monkeypatch)
    matmul = count_matrix_calls(monkeypatch, "__matmul__")
    count, steps = 0, Counter()
    for mats in nilpotency_families():
        p = mats[0].modulus
        commuting = curvature(mats, mats[0].vars, flat=False) is None
        assert support_depth(mats) == boolean_depth(mats)
        for bound in range(1, p + 2):
            want = exhaustive_nilpotency_exponent(mats, bound) is not None
            # the scan's own row: what a rank above the bound falls back to
            assert (nilpotency_exponent(mats, bound) is not None) == want
            if not commuting:  # check_higgs leaves these undecided
                continue
            steps[decided_by(scans, matmul, mats, bound, want)] += 1
        count += 1
    # every commuting family here has an acyclic support, so the squarings
    # decide none of them (graph_families has the cyclic ones)
    assert count == 90 and set(steps) == {"graph", "scan"}


def dense_unimodular(rank, vars, p):
    """(I + sum_j t E_(j+1, j)) times (I + sum_j 2 E_(j, j+1)): unit determinant,
    and below and above the diagonal a nonzero entry in every place."""
    t = LaurentPoly.var(vars, p, vars.names[0])
    lower, upper = PolyMatrix.identity(rank, vars, p), PolyMatrix.identity(rank, vars, p)
    for j in range(rank - 1):
        lower = lower + e_mat(j + 1, j, rank, vars, p).scale(t)
        upper = upper + e_mat(j, j + 1, rank, vars, p).scale(LaurentPoly.const(vars, p, 2))
    return lower @ upper


def graph_families():
    """Families beyond nilpotency_families, each with its depth:
    cyclic supports that are still nilpotent, acyclic supports whose
    products cancel before L + 1 factors, and mod-p**2 families."""
    for p in (5, 7):
        for rank in (3, 4):
            g = dense_unimodular(rank, T, p)
            conj = g @ jordan_block(rank, T, p) @ g.inverse_unit_det()
            yield [conj, conj @ conj], None  # a dense gauge of a Jordan block
    # m = a + b with m^2 = ab = ba = 0, but the support has the path 3 -> 1 -> 0
    a = e_mat(0, 1, 4, T, 5) + e_mat(0, 2, 4, T, 5)
    b = e_mat(1, 3, 4, T, 5) - e_mat(2, 3, 4, T, 5)
    yield [a, b], 2
    yield [a + b], 2
    # mod 25: a Jordan block, 5 with 5^2 = 0, and 5I + N with (5I + N)^3 = 0
    yield [jordan_block(3, T, 25)], 2
    yield [PolyMatrix.from_int_rows([[5]], T, 25)], None
    yield [PolyMatrix.from_int_rows([[5, 1], [0, 5]], T, 25)], None
    yield [jordan_block(3, T, 25).scale(LaurentPoly.parse("t + 5", T, 25)),
           e_mat(0, 2, 3, T, 25).scale(LaurentPoly.parse("10*t", T, 25))], 2


def test_support_graph_verdicts_match_the_exhaustive_reference(monkeypatch):
    scans = count_scans(monkeypatch)
    matmul = count_matrix_calls(monkeypatch, "__matmul__")
    steps = Counter()
    for mats, depth in graph_families():
        assert curvature(mats, mats[0].vars, flat=False) is None
        assert support_depth(mats) == boolean_depth(mats) == depth
        for bound in range(1, 8):
            want = exhaustive_nilpotency_exponent(mats, bound) is not None
            steps[decided_by(scans, matmul, mats, bound, want)] += 1
    assert set(steps) == {"graph", "squarings", "scan"}


def test_an_acyclic_support_decides_a_family_that_does_not_commute():
    vars = VarSpec.make(["t", "u"])
    t, u = (LaurentPoly.var(vars, 5, x) for x in ("t", "u"))
    mats = [e_mat(0, 1, 3, vars, 5).scale(t), e_mat(1, 2, 3, vars, 5),
            e_mat(0, 2, 3, vars, 5).scale(u)]
    assert curvature(mats, vars, flat=False) is not None
    assert support_depth(mats) == 2 and nilpotent_within(mats, 3)
    assert all(functools.reduce(PolyMatrix.__matmul__, prod).is_zero()
               for prod in itertools.product(mats, repeat=3))
    assert not (mats[0] @ mats[1]).is_zero()


def affine_atlas(p, names):
    ctx = PrimeContext(p)
    vars = VarSpec.make(names)
    atlas = Atlas(ctx)
    atlas.add_chart("A", vars)
    atlas.add_lift(FrobLift("A", {t: LaurentPoly.var(vars, ctx.p2, t, p) for t in names}))
    atlas.validate()
    return atlas


@pytest.mark.parametrize("names,rank,pairs", [
    # each matrix squares to zero, but they do not commute and e_01 e_10 = e_00
    pytest.param(["t", "u"], 2, [(0, 1), (1, 0)], id="plane"),
    # not nilpotent and not commuting: e_01 e_10 = e_00
    pytest.param(["t", "u", "v"], 3, [(0, 1), (1, 2), (1, 0)], id="space"),
])
def test_nilpotency_of_a_non_integrable_chart_is_not_decided(monkeypatch, names, rank, pairs):
    scans = count_scans(monkeypatch)
    atlas = affine_atlas(5, names)
    vars = atlas.chart_vars("A")
    E = HiggsSheaf(atlas, rank, {"A": [e_mat(i, j, rank, vars, 5) for i, j in pairs]})
    rep = check_higgs(E)
    assert [e.check for e in rep.failures()] == ["integrability[A]"]
    assert [(e.check, e.status, e.witness) for e in rep.entries if "nilpotency" in e.check] == [
        ("nilpotency[A] exponent <= 4", "skip", ("not decided: the field is not integrable",)),
    ]
    assert scans == []


def test_nilpotent_within_scans_what_squaring_cannot_decide(monkeypatch):
    scans = count_scans(monkeypatch)
    matmul = count_matrix_calls(monkeypatch, "__matmul__")
    # rank 2 <= 4: the self-loop leaves it to squaring, and e_00 is not nilpotent
    assert decided_by(scans, matmul, [e_mat(0, 0, 2, T, 5)], 4, False) == "squarings"
    # rank 4 > bound 3, and its path of 3 edges > bound - 1: N^4 = 0 but N^3 != 0
    block = jordan_block(4, T, 5)
    assert decided_by(scans, matmul, [block], 3, False) == "scan"
    # N^2 of the block: two paths of one edge, so its graph proves exponent <= 2
    assert decided_by(scans, matmul, [block @ block], 2, True) == "graph"
    # a path of 2 edges > bound - 1, but the products cancel: the scan finds m^2 = 0
    m = e_mat(0, 1, 4, T, 5) + e_mat(0, 2, 4, T, 5) + e_mat(1, 3, 4, T, 5) - e_mat(2, 3, 4, T, 5)
    assert decided_by(scans, matmul, [m], 2, True) == "scan"
    # mod p**2 rings are not domains: [5] squares to zero mod 25
    assert decided_by(scans, matmul, [PolyMatrix.from_int_rows([[5]], T, 25)], 2, True) == "scan"


@pytest.mark.parametrize("p", [3, 5, 7])
def test_a_rank_p_jordan_block_is_not_nilpotent_within_p_minus_1(p):
    # its path of p - 1 edges leaves the bound p - 1 open, and N^(p-1) != 0
    atlas = affine_atlas(p, ["t"])
    block = jordan_block(p, atlas.chart_vars("A"), p)
    assert support_depth([block]) == p - 1
    assert not nilpotent_within([block], p - 1) and nilpotent_within([block], p)
    rep = check_higgs(HiggsSheaf(atlas, p, {"A": [block]}))
    assert [(e.check, e.witness) for e in rep.failures()] == [
        (f"nilpotency[A] exponent <= {p - 1}", (f"no vanishing up to degree {p - 1}",))]


def test_the_headline_round_trip_squares_nothing(monkeypatch):
    """p = 23, two variables, rank 22: the input's and psi's exponents are read
    off their support graphs, with no `@` inside nilpotent_within."""
    p, names, rank = 23, ["t", "u"], 22
    E = HiggsSheaf(affine_atlas(p, names), rank, {"A": seeded_jordan_fields(p, names, rank, 1)})
    matmul = count_matrix_calls(monkeypatch, "__matmul__")
    inside = []
    decide = sheaves.nilpotent_within

    def counted(mats, bound):
        before = len(matmul)
        verdict = decide(mats, bound)
        inside.append(len(matmul) - before)
        return verdict

    for module in (sheaves, transforms):
        monkeypatch.setattr(module, "nilpotent_within", counted)
    assert cartier(inverse_cartier(E)) == E.negated()
    assert inside == [0, 0]  # check_higgs on theta, then untwist on psi


def count_matrix_calls(monkeypatch, name):
    """Record every call of the PolyMatrix method `name`."""
    calls = []
    original = getattr(PolyMatrix, name)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(PolyMatrix, name, counted)
    return calls


@pytest.mark.parametrize("p", [3, 5, 7])
def test_descending_a_gallery_image_takes_no_adjugate(monkeypatch, p):
    # every forward image's flat frame is the identity, its own inverse
    adjugates = count_matrix_calls(monkeypatch, "adjugate")
    count = 0
    for name in GALLERY_NAMES:
        E = gallery(name, p).sheaf
        if isinstance(E, HiggsSheaf):
            H = inverse_cartier(E)
            assert cartier(H) == E.negated()
            count += 1
    assert count == 6 and adjugates == []


def test_the_rank_52_round_trip_takes_no_adjugate(monkeypatch):
    """p = 53, one variable, rank 52: the identity frame that took most of the
    converse's time as a cofactor adjugate is returned as its own inverse."""
    p, names, rank = 53, ["t"], 52
    E = HiggsSheaf(affine_atlas(p, names), rank, {"A": seeded_jordan_fields(p, names, rank, 1)})
    adjugates = count_matrix_calls(monkeypatch, "adjugate")
    assert cartier(inverse_cartier(E)) == E.negated()
    assert adjugates == []


CHAIN = PolyMatrix.nabla_power  # the p-curvature's reference and its fallback


def pure_gauge(p=3):
    """Criterion 3's pure gauge d - dF F^-1, F^-1 = [[1 + t^3, t^2], [t, 1]]:
    its coefficient matrices do not commute."""
    atlas = gallery("g1_trivial", p).atlas
    vars = atlas.chart_vars("A1")
    inv = PolyMatrix([[LaurentPoly.parse(x, vars, p) for x in row]
                      for row in (("1 + t^3", "t^2"), ("t", "1"))])
    return FlatSheaf(atlas, 2, {"A1": [-(inv.inverse_unit_det().deriv("t") @ inv)]})


def coordinates(H):
    """(A_i, t_i) for every coordinate of every chart of H."""
    return [(a, t) for chart, mats in H.conn.items()
            for a, t in zip(mats, H.atlas.chart_vars(chart).names)]


@pytest.mark.parametrize("name,p", [("g5_p1_uniformizing", 3), ("g6_a2_rank3", 5)])
def test_p_curvature_of_a_forward_image_takes_the_closed_form(monkeypatch, name, p):
    # the coefficient matrices of a forward image of g5 or g6 commute
    H = inverse_cartier(gallery(name, p).sheaf)
    chains = count_matrix_calls(monkeypatch, "nabla_power")
    nabla = count_matrix_calls(monkeypatch, "nabla")
    matmul = count_matrix_calls(monkeypatch, "__matmul__")
    psi = p_curvature(H)
    assert chains == [] and nabla == [] and matmul == []
    assert not psi.is_zero()


def test_p_curvature_of_the_pure_gauge_is_one_chain_per_coordinate(monkeypatch):
    H = pure_gauge()
    chains = count_matrix_calls(monkeypatch, "nabla_power")
    psi = p_curvature(H)
    want = coordinates(H)
    assert len(chains) == len(want) == 1
    assert all(got[0] is a and got[1:] == (t, 2) for got, (a, t) in zip(chains, want))
    assert psi.is_zero()


def jacobson(a, t):
    """Jacobson's d^(p-1) A + sum_e t^(pe) A_e^p for A = sum_e t^e A_e, from
    public operations, or None when the constant matrices A_e do not commute
    pairwise.  When they do, A commutes with its derivatives and this is the
    p-curvature, an oracle that is not the chain."""
    p, vars = a.modulus, a.vars
    coeffs = {}
    for i, row in enumerate(a.entries):
        for j, f in enumerate(row):
            for e, c in f.coefficients.items():
                coeffs.setdefault(e, [[0] * a.cols for _ in range(a.rows)])[i][j] = c
    mats = {e: PolyMatrix.from_int_rows(rows, vars, p) for e, rows in coeffs.items()}
    if not all(x.commutes_with(y) for x, y in itertools.combinations(mats.values(), 2)):
        return None
    psi = a
    for _ in range(p - 1):
        psi = psi.deriv(t)
    for e, m in mats.items():
        power = m
        for _ in range(p - 1):
            power = power @ m
        psi = psi + power.scale(LaurentPoly.monomial(vars, p, 1, [p * x for x in e]))
    return psi


def p_curvature_branches(monkeypatch):
    """A function (A, t) -> the branch of A.p_curvature(t) that answered, after
    checking the answer against the chain and, where the constant coefficient
    matrices of A commute, against `jacobson`.

    The branches are read from the ring helpers each one calls: 'frobenius'
    (rank one: the p-th power terms and no scalar classes), 'wilson' (the
    support graph alone), 'commutation' (the pairwise test, then the Wilson
    term alone on an acyclic support) and 'chain'.
    """
    from xcartier import ring

    calls = Counter()

    def counted(name):
        original = getattr(ring, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(ring, name, wrapper)

    for name in ("_scalar_classes", "_commute_pairwise", "_frobenius_terms"):
        counted(name)
    chains = count_matrix_calls(monkeypatch, "nabla_power")

    def branch(a, t):
        calls.clear()
        chains.clear()
        psi = a.p_curvature(t)
        assert psi == CHAIN(a, a, t, a.modulus - 1)
        if chains:
            assert chains == [(a, t, a.modulus - 1)] and not calls["_frobenius_terms"]
            kind = "chain"
        elif not calls["_scalar_classes"]:
            assert not calls["_commute_pairwise"]
            kind = "frobenius" if calls["_frobenius_terms"] else "wilson"
        else:
            assert calls["_commute_pairwise"] == 1
            kind = "commutation"
        assert (oracle := jacobson(a, t)) is None or psi == oracle
        return kind

    return branch


def closed_form_count(monkeypatch, components):
    """Compare each (A, t)'s p-curvature with the chain; count the closed forms.

    A component answered without a `nabla_power` call took the closed form.
    """
    branch = p_curvature_branches(monkeypatch)
    return sum(branch(a, t) != "chain" for a, t in components)


def lifting_choices(atlas):
    charts = sorted(atlas.charts)
    for idx in itertools.product(*(range(len(atlas.lifts[c])) for c in charts)):
        yield dict(zip(charts, idx))


@pytest.mark.parametrize("p,count", [(3, 15), (5, 17), (7, 17), (11, 17), (13, 17)])
def test_p_curvature_closed_form_equals_the_chain_on_gallery_images(monkeypatch, p, count):
    variants = {"g6_a2_rank3": [{}, {"exponent3": True}] if p >= 5 else [{}],
                "g7_gm_rank1": [{"c": c} for c in range(3)]}
    components = []
    for name in GALLERY_NAMES:
        for options in variants.get(name, [{}]):
            scene = gallery(name, p, **options)
            if isinstance(scene.sheaf, FlatSheaf):
                components += coordinates(scene.sheaf)
                continue
            for choice in lifting_choices(scene.atlas):
                components += coordinates(inverse_cartier(scene.sheaf, choice))
    assert closed_form_count(monkeypatch, components) == len(components) == count


@pytest.mark.parametrize("p", [3, 5, 7])
def test_p_curvature_closed_form_equals_the_chain_on_seeded_jordan_images(monkeypatch, p):
    from xcartier.acceptance import perturbed_atlas

    components = []
    for seed in range(6):
        names = ["t", "u", "v"][:seed % 3 + 1]
        rank = 2 + seed % (p - 2)
        atlas = affine_atlas(p, names)
        if seed % 2:  # liftings t^p + p r(t), so zeta is not diagonal
            atlas = perturbed_atlas(atlas, seed)
        E = HiggsSheaf(atlas, rank, {"A": seeded_jordan_fields(p, names, rank, seed)})
        components += coordinates(inverse_cartier(E))
    assert closed_form_count(monkeypatch, components) == len(components) == 12


def seeded_laurent(rng, vars, p):
    """Three seeded terms, exponents in [-p - 1, 2p] on inverted variables and
    in [0, 2p] on the others."""
    return LaurentPoly(vars, p, {
        tuple(rng.randint(-p - 1 if vars.allows_negative(n) else 0, 2 * p) for n in vars.names):
            rng.randrange(1, p)
        for _ in range(3)
    })


@pytest.mark.parametrize("p", [3, 5, 7])
def test_p_curvature_closed_form_equals_the_chain_on_commuting_seeded_connections(monkeypatch, p):
    rng = random.Random(p)
    components = []
    for vars in (VarSpec.make(["t"], ["t"]), VarSpec.make(["t", "u"], ["t"])):
        zero = LaurentPoly.zero(vars, p)
        for _ in range(4):
            rank_one = PolyMatrix([[seeded_laurent(rng, vars, p)]])
            diagonal = PolyMatrix([[seeded_laurent(rng, vars, p) if i == j else zero
                                    for j in range(3)] for i in range(3)])
            # a polynomial in one constant matrix m, which need not be nilpotent
            m = PolyMatrix.from_int_rows([[rng.randrange(p) for _ in range(3)] for _ in range(3)],
                                         vars, p)
            power, in_m = PolyMatrix.identity(3, vars, p), []
            for _ in range(3):
                in_m.append((seeded_laurent(rng, vars, p), power))
                power = power @ m
            for a in (rank_one, diagonal, PolyMatrix.combine(in_m)):
                components += [(a, t) for t in vars.names]
        # a 3-cycle b: b^p = b^(p mod 3), which at p = 3, 5 has entries where b has none
        b = PolyMatrix.from_int_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]], vars, p)
        two = PolyMatrix.from_int_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]], vars, p)
        for a in (b, b.scale(LaurentPoly.var(vars, p, "t", p - 1)), b + two):
            components += [(a, t) for t in vars.names]
    # the rank-one connections take the closed form and the cyclic supports the chain;
    # every A_e commutes, so the branch check also compares each psi with Jacobson's sum
    assert all(jacobson(a, t) is not None for a, t in components)
    assert closed_form_count(monkeypatch, components) == 12 and len(components) == 45


def test_p_curvature_of_non_commuting_coefficients_takes_the_chain(monkeypatch):
    p = 5
    E = HiggsSheaf(affine_atlas(p, ["t"]), 3, {"A": seeded_jordan_fields(p, ["t"], 3, 1)})
    H = inverse_cartier(E)
    vars = H.atlas.chart_vars("A")
    g = PolyMatrix.identity(3, vars, p) + e_mat(2, 0, 3, vars, p).scale(
        LaurentPoly.parse("t^2 + 1", vars, p))
    # the flat gauge transform (g A - dg) g^-1 of the Jordan image
    gauged = FlatSheaf(H.atlas, 3, {
        "A": [(g @ H.conn["A"][0] - g.deriv("t")) @ g.inverse_unit_det()]})
    assert check_flat(gauged).ok()
    components = coordinates(gauged) + coordinates(pure_gauge()) + coordinates(pure_gauge(5))
    assert closed_form_count(monkeypatch, components) == 0 and len(components) == 3


def test_p_curvature_equals_the_chain_on_every_small_matrix_over_f3(monkeypatch):
    """All 9^4 2x2 matrices over F_3[t] with entries a + b t."""
    branch = p_curvature_branches(monkeypatch)
    entries = [LaurentPoly(T, 3, {(0,): a, (1,): b}) for a in range(3) for b in range(3)]
    branches = Counter(branch(PolyMatrix([list(m[:2]), list(m[2:])]), "t")
                       for m in itertools.product(entries, repeat=4))
    # acyclic: zero, or one nonzero entry off the diagonal (support depth 1)
    assert branches["wilson"] == 1 + 2 * 8
    assert set(branches) == {"wilson", "chain"} and sum(branches.values()) == 6561


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_p_curvature_at_rank_one_is_frobenius_plus_wilson(monkeypatch, p):
    branch = p_curvature_branches(monkeypatch)
    rng = random.Random(p)
    for vars in (VarSpec.make(["t"], ["t"]), VarSpec.make(["t", "u"], ["t"]),
                 VarSpec.make(["t", "u"], ["t", "u"])):
        for _ in range(6):
            a = PolyMatrix([[seeded_laurent(rng, vars, p)]])
            assert {branch(a, t) for t in vars.names} == {"frobenius"}


def test_p_curvature_of_a_depth_one_support_makes_no_commutation_test(monkeypatch):
    """On a support of longest path 1 every product of two matrices is zero, so the
    derivatives of A commute with A, however many scalar classes A has, and
    psi = d^(p-1) A.  Here A_t and A_u do not commute with each other."""
    branch = p_curvature_branches(monkeypatch)
    p = 5
    vars = VarSpec.make(["t", "u"], ["t"])
    a_t = PolyMatrix([[LaurentPoly.parse(x, vars, p) for x in row] for row in (
        ("0", "0", "t^-1 + u", "2*t^4"),
        ("0", "0", "1 + t^9*u", "t^-6 - u^2"),
        ("0", "0", "0", "0"),
        ("0", "0", "0", "0"),
    )])
    a_u = e_mat(2, 0, 4, vars, p).scale(LaurentPoly.parse("u^4 + t^-1", vars, p))
    assert support_depth([a_t]) == support_depth([a_u]) == 1
    assert not a_t.commutes_with(a_u)
    assert [branch(a, t) for a in (a_t, a_u) for t in vars.names] == ["wilson"] * 4
    assert not a_t.p_curvature("t").is_zero() and not a_u.p_curvature("u").is_zero()


def test_p_curvature_of_a_deeper_support_takes_the_commutation_test(monkeypatch):
    """Longest path 2 <= p - 1: commuting classes give psi = d^(p-1) A, since
    every A_e^p is zero; non-commuting classes take the chain."""
    branch = p_curvature_branches(monkeypatch)
    for p in (3, 5, 7):
        vars = VarSpec.make(["t", "u"])
        n = jordan_block(3, vars, p)
        f, g = (LaurentPoly.parse(x, vars, p) for x in (f"t^{p - 1} + u", f"2*t^{2 * p - 1}*u + 1"))
        commuting = n.scale(f) + (n @ n).scale(g)
        # f E_01 + E_12: the classes E_01 and E_12 do not commute, E_01 E_12 = E_02
        crossing = e_mat(0, 1, 3, vars, p).scale(f) + e_mat(1, 2, 3, vars, p)
        assert support_depth([commuting]) == support_depth([crossing]) == 2
        assert [branch(a, t) for a in (commuting, crossing) for t in vars.names] == [
            "commutation", "commutation", "chain", "chain"]
        assert not commuting.p_curvature("t").is_zero()
        # a rank-p Jordan block has longest path p - 1, the largest with N^p = 0
        block = jordan_block(p, vars, p)
        assert branch(block, "t") == "commutation" and block.p_curvature("t").is_zero()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_p_curvature_of_a_rank_p_plus_1_jordan_block_is_its_p_th_power(monkeypatch, p):
    """Longest path p: the support no longer proves N^p = 0, and psi = N^p = E_(0,p)."""
    branch = p_curvature_branches(monkeypatch)
    block = jordan_block(p + 1, T, p)
    assert support_depth([block]) == p
    assert branch(block, "t") == "chain"
    assert block.p_curvature("t") == jacobson(block, "t") == e_mat(0, p, p + 1, T, p)


@pytest.mark.parametrize("rank", [2, 4, 6])
def test_nilpotency_exponent_of_a_jordan_block_makes_rank_minus_one_products(monkeypatch, rank):
    block = jordan_block(rank, T, 7)
    matmul = count_matrix_calls(monkeypatch, "__matmul__")
    assert nilpotency_exponent([block], 6) == rank
    assert len(matmul) == rank - 1


@given(st.integers(0, 2), st.integers(0, 2), st.integers(1, 2))
@settings(max_examples=25)
def test_gauge_naturality_of_p_curvature(c0, c1, c2):
    # conjugating a flat sheaf by unit g conjugates psi by g
    atlas = a1_atlas()
    n = e_mat(0, 1, 2, T, 3)
    a = n.scale(LaurentPoly.parse("t^2", T, 3))
    H = FlatSheaf(atlas, 2, {"A1": [a]})
    g = PolyMatrix.identity(2, T, 3) + n.scale(
        LaurentPoly(T, 3, {(0,): c0, (1,): c1, (2,): c2})
    )
    g_inv = g.inverse_unit_det()
    transformed = FlatSheaf(atlas, 2, {"A1": [g @ a @ g_inv - g.deriv("t") @ g_inv]})
    assert verify_gauge_witness(H, transformed, {"A1": g}, flat=True)
    assert check_flat(transformed).ok()
    psi_t = p_curvature(transformed)
    psi = p_curvature(H)
    expected = g @ psi.comps["A1"][0] @ g_inv
    assert psi_t.comps["A1"][0] == expected


def test_p_curvature_not_additive_in_the_connection():
    # no false general law: psi(A+B) differs from psi(A) + psi(B) here
    atlas = a1_atlas()
    a = e_mat(0, 1, 2, T, 3)
    b = e_mat(1, 0, 2, T, 3).scale(LaurentPoly.parse("t", T, 3))
    psi_a = p_curvature(FlatSheaf(atlas, 2, {"A1": [a]})).comps["A1"][0]
    psi_b = p_curvature(FlatSheaf(atlas, 2, {"A1": [b]})).comps["A1"][0]
    psi_sum = p_curvature(FlatSheaf(atlas, 2, {"A1": [a + b]})).comps["A1"][0]
    assert psi_a.is_zero() and psi_b.is_zero()
    assert not psi_sum.is_zero()


# ---------------------------------------------------------------- lambda-connections


def test_curvature_at_both_lambdas():
    atlas = a2_atlas()
    vars = atlas.chart_vars("A2")
    t2_id = PolyMatrix.identity(1, vars, 3).scale(LaurentPoly.parse("t2", vars, 3))
    mats = [t2_id, PolyMatrix.zero(1, 1, vars, 3)]
    assert curvature(mats, vars, flat=False) is None  # the components commute
    assert curvature(mats, vars, flat=True) == (0, 1, -PolyMatrix.identity(1, vars, 3))
    e12, e23 = e_mat(0, 1, 3, vars, 3), e_mat(1, 2, 3, vars, 3)
    assert curvature([e12, e23], vars, flat=False) == (0, 1, e_mat(0, 2, 3, vars, 3))


def test_residual_vanishes_exactly_for_the_gauge_rule():
    # g = 1 + tN carries the zero connection to g 0 g^-1 - dg g^-1 = -N
    n = e_mat(0, 1, 2, T, 3)
    g = PolyMatrix.identity(2, T, 3) + n.scale(LaurentPoly.parse("t", T, 3))
    zero = PolyMatrix.zero(2, 2, T, 3)
    assert intertwining_residuals(g, [zero], [-n], T, flat=True) == [zero]
    assert intertwining_residuals(g, [zero], [-n], T, flat=False) == [n]
    assert intertwining_residuals(g, [zero], [zero], T, flat=False) == [zero]


def test_pull_back_contracts_against_the_jacobian_columns():
    # the form A dw_0 + B dw_1 with w_0 = t1, w_1 = t1*t2 is (A + t2 B) dt1 + t1 B dt2
    vars = a2_atlas().chart_vars("A2")
    a, b = e_mat(0, 1, 2, vars, 3), e_mat(1, 0, 2, vars, 3)
    t1, t2 = LaurentPoly.parse("t1", vars, 3), LaurentPoly.parse("t2", vars, 3)
    assert pull_back([a, b], jacobian([t1, t1 * t2])) == [a + b.scale(t2), b.scale(t1)]
    # a zero column of the Jacobian gives the zero matrix
    assert pull_back([a, b], jacobian([t1, t1])) == [a + b, PolyMatrix.zero(2, 2, vars, 3)]


# ---------------------------------------------------------------- triple overlaps


def glued_charts(names, inverted_pairs=(), p=3, pairs=None):
    """Chart X has coordinate x; each pair (X, Y) is glued by y = x (default: all X < Y)."""
    ctx = PrimeContext(p)
    atlas = Atlas(ctx)
    for name in names:
        vars = VarSpec.make([name.lower()])
        atlas.add_chart(name, vars)
        frobenius = LaurentPoly.var(vars, ctx.p2, name.lower(), p)
        atlas.add_lift(FrobLift(name, {name.lower(): frobenius}))

    def coordinate(name, vars):
        return LaurentPoly.var(vars, ctx.p2, name)

    for a, b in pairs or itertools.combinations(names, 2):
        inv = (a, b) in inverted_pairs
        a_vars = VarSpec.make([a.lower()], [a.lower()] if inv else [])
        b_vars = VarSpec.make([b.lower()], [b.lower()] if inv else [])
        atlas.add_overlap(Overlap(a, b, a_vars, b_vars, {b.lower(): coordinate(a.lower(), a_vars)},
                                  {a.lower(): coordinate(b.lower(), b_vars)}))
    atlas.validate()
    return atlas


def rank_one(atlas, texts=None):
    """Zero rank-1 matrices per chart and the given (default: identity) transitions."""
    p = atlas.ctx.p
    zero = {c: [PolyMatrix.zero(1, 1, atlas.chart_vars(c), p)] for c in atlas.charts}
    texts = texts or {}
    transitions = {
        pair: PolyMatrix([[LaurentPoly.parse(texts.get(pair, "1"), ov.alpha_vars, p)]])
        for pair, ov in atlas.overlaps.items()
    }
    return zero, transitions


def test_three_charts_glued_by_identities_pass_the_cocycle():
    atlas = glued_charts("ABC")
    zero, transitions = rank_one(atlas)
    for rep in (check_higgs(HiggsSheaf(atlas, 1, zero, transitions)),
                check_flat(FlatSheaf(atlas, 1, zero, transitions))):
        assert rep.ok()
        assert "[PASS] transition cocycle[A,B,C]" in rep.lines()


def test_cocycle_compares_on_the_triple_overlap():
    # T_AB = a and T_BC = b^-1 need the inversions of two overlaps; T_AC = 1 needs none
    atlas = glued_charts("ABC", inverted_pairs={("A", "B"), ("B", "C")})
    texts = {("A", "B"): "a", ("B", "C"): "b^-1"}
    zero, transitions = rank_one(atlas, texts)
    assert check_higgs(HiggsSheaf(atlas, 1, zero, transitions)).ok()
    _, scaled = rank_one(atlas, {**texts, ("A", "C"): "2"})
    rep = check_higgs(HiggsSheaf(atlas, 1, zero, scaled))
    assert [e.check for e in rep.failures()] == ["transition cocycle[A,B,C]"]
    assert "[FAIL] transition cocycle[A,B,C]" in rep.lines()


def test_cyclic_overlaps_are_checked_around_the_cycle():
    # overlaps stored as (A,B), (B,C), (C,A): the check is T_CA T_BC T_AB = 1
    atlas = glued_charts("ABC", pairs=[("A", "B"), ("B", "C"), ("C", "A")])
    zero, identity = rank_one(atlas)
    for rep in (check_higgs(HiggsSheaf(atlas, 1, zero, identity)),
                check_flat(FlatSheaf(atlas, 1, zero, identity))):
        assert rep.ok()
        assert "[PASS] transition cocycle[A,B,C]" in rep.lines()
    _, broken = rank_one(atlas, {("C", "A"): "2"})
    rep = check_higgs(HiggsSheaf(atlas, 1, zero, broken))
    assert [e.check for e in rep.failures()] == ["transition cocycle[A,B,C]"]
    assert "[FAIL] transition cocycle[A,B,C]" in rep.lines()


def test_cyclic_cocycle_pulls_back_through_both_overlaps_at_a():
    # T_CA = c^-1 becomes a^-1 through the (C,A) overlap and cancels T_AB = a
    cycle = [("A", "B"), ("B", "C"), ("C", "A")]
    atlas = glued_charts("ABC", inverted_pairs={("A", "B"), ("C", "A")}, pairs=cycle)
    zero, transitions = rank_one(atlas, {("A", "B"): "a", ("C", "A"): "c^-1"})
    assert check_higgs(HiggsSheaf(atlas, 1, zero, transitions)).ok()
    _, broken = rank_one(atlas, {("A", "B"): "a", ("C", "A"): "c"})
    rep = check_higgs(HiggsSheaf(atlas, 1, zero, broken))
    assert [e.check for e in rep.failures()] == ["transition cocycle[A,B,C]"]


def test_cocycle_report_does_not_depend_on_the_hash_seed(tmp_path):
    atlas = glued_charts("ABCD")
    zero, transitions = rank_one(atlas)
    scene = tmp_path / "four_charts.json"
    scene.write_text(emit_scene(Scene(atlas.ctx, atlas, HiggsSheaf(atlas, 1, zero, transitions))))
    probe = (
        "import sys; from xcartier import check_higgs, parse_scene; "
        "print('\\n'.join(check_higgs(parse_scene(open(sys.argv[1]).read()).sheaf).lines()))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    outs = [
        subprocess.run([sys.executable, "-c", probe, str(scene)], capture_output=True, text=True,
                       check=True, timeout=60, cwd=src,
                       env={**os.environ, "PYTHONHASHSEED": seed}).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] == outs[1]
    cocycles = [line for line in outs[0].splitlines() if "cocycle" in line]
    assert cocycles == [f"[PASS] transition cocycle[{t}]"
                        for t in ("A,B,C", "A,B,D", "A,C,D", "B,C,D")]
