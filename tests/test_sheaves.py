import pytest
from hypothesis import given, settings, strategies as st

from xcartier.atlas import Atlas, FrobLift
from xcartier.gallery import gallery
from xcartier.ring import LaurentPoly, PolyMatrix, PrimeContext, VarSpec
from xcartier.sheaves import (
    FlatSheaf,
    HiggsSheaf,
    check_flat,
    check_higgs,
    higgs_exponent,
    nilpotency_exponent,
    p_curvature,
)
from xcartier.transforms import verify_gauge_witness

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
        assert higgs_exponent(E) == 1


def test_rank2_constant_field_exponent_two():
    atlas = a1_atlas()
    E = HiggsSheaf(atlas, 2, {"A1": [e_mat(0, 1, 2, T, 3)]})
    assert check_higgs(E).ok()
    assert higgs_exponent(E) == 2


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


def test_nilpotency_exponent_monomials():
    vars = VarSpec.make(["t1", "t2"])
    mats = [e_mat(0, 1, 3, vars, 5), e_mat(0, 2, 3, vars, 5)]
    assert nilpotency_exponent(mats, 4) == 2


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
