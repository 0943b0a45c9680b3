import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from xcartier import sheaves
from xcartier.atlas import Atlas, FrobLift, Overlap, SubstPair
from xcartier.gallery import GALLERY_NAMES, gallery
from xcartier.identities import commuting_nilpotent_family
from xcartier.ring import LaurentPoly, PolyMatrix, PrimeContext, VarSpec, jacobian
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
    verify_p_curvature_invariants,
)
from xcartier.transforms import inverse_cartier, verify_gauge_witness

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


@pytest.mark.parametrize("p", [3, 5])
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


def test_nilpotent_within_matches_the_exhaustive_reference(monkeypatch):
    scans = count_scans(monkeypatch)
    count = squared = 0
    for mats in nilpotency_families():
        p = mats[0].modulus
        commuting = curvature(mats, mats[0].vars, flat=False) is None
        for bound in range(1, p + 2):
            want = exhaustive_nilpotency_exponent(mats, bound) is not None
            scans.clear()
            assert nilpotent_within(mats, bound, commuting) == want
            # squaring decides exactly the commuting families of rank <= bound
            assert scans == ([] if commuting and mats[0].rows <= bound else [bound])
            squared += not scans
            scans.clear()  # a failed integrability check always scans
            assert nilpotent_within(mats, bound, False) == want
            assert scans == [bound]
        count += 1
    assert count == 90 and squared > 0


def test_nilpotent_within_scans_what_squaring_cannot_decide(monkeypatch):
    scans = count_scans(monkeypatch)
    plane = VarSpec.make(["t", "u"])
    # commuting, rank 2 <= 4: squaring decides, and e_00 is not nilpotent
    assert not nilpotent_within([e_mat(0, 0, 2, T, 5)], 4, True) and scans == []
    # each matrix squares to zero, but they do not commute and e_01 e_10 = e_00
    non_commuting = [e_mat(0, 1, 2, plane, 5), e_mat(1, 0, 2, plane, 5)]
    assert curvature(non_commuting, plane, flat=False) is not None
    assert not nilpotent_within(non_commuting, 2, False) and scans == [2]
    scans.clear()  # why squaring must never decide a family that does not commute
    assert nilpotent_within(non_commuting, 2, True) and scans == []
    # not nilpotent and not commuting: e_01 e_10 = e_00
    assert not nilpotent_within([e_mat(0, 1, 3, T, 5), e_mat(1, 2, 3, T, 5),
                                 e_mat(1, 0, 3, T, 5)], 2, False) and scans == [2]
    scans.clear()  # rank 4 > bound 3: N^4 = 0 but N^3 != 0
    block = PolyMatrix.from_int_rows(
        [[1 if j == i + 1 else 0 for j in range(4)] for i in range(4)], T, 5)
    assert not nilpotent_within([block], 3, True) and scans == [3]
    scans.clear()  # rank 4 > bound 2, and N^2 of the block has exponent 2
    assert nilpotent_within([block @ block], 2, True) and scans == [2]
    scans.clear()  # mod p**2 rings are not domains: [5] squares to zero mod 25
    assert nilpotent_within([PolyMatrix.from_int_rows([[5]], T, 25)], 2, True) and scans == [2]


def count_matrix_calls(monkeypatch, name):
    """Record every call of the PolyMatrix method `name`."""
    calls = []
    original = getattr(PolyMatrix, name)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(PolyMatrix, name, counted)
    return calls


@pytest.mark.parametrize("name,p", [("g5_p1_uniformizing", 3), ("g6_a2_rank3", 5)])
def test_p_curvature_is_p_minus_one_fused_steps(monkeypatch, name, p):
    # one chain of p-1 steps per coordinate per chart, and no other product
    H = inverse_cartier(gallery(name, p).sheaf)
    chains = count_matrix_calls(monkeypatch, "nabla_power")
    nabla = count_matrix_calls(monkeypatch, "nabla")
    matmul = count_matrix_calls(monkeypatch, "__matmul__")
    psi = p_curvature(H)
    want = [
        (a, t) for chart, mats in H.conn.items() for a, t in zip(mats, H.atlas.chart_vars(chart).names)
    ]
    assert len(chains) == len(want)
    assert all(got[0] is a and got[1:] == (t, p - 1) for got, (a, t) in zip(chains, want))
    assert nabla == [] and matmul == []
    assert not psi.is_zero()


@pytest.mark.parametrize("rank", [2, 4, 6])
def test_nilpotency_exponent_of_a_jordan_block_makes_rank_minus_one_products(monkeypatch, rank):
    block = PolyMatrix.from_int_rows(
        [[1 if j == i + 1 else 0 for j in range(rank)] for i in range(rank)], T, 7
    )
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
        return SubstPair(LaurentPoly.var(vars, p, name), LaurentPoly.var(vars, ctx.p2, name))

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
