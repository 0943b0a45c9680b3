import pytest

from xcartier import sheaves, transforms
from xcartier.atlas import Atlas, FrobLift, h_pair
from xcartier.gallery import GALLERY_NAMES, gallery
from xcartier.ring import LaurentPoly, PolyMatrix, PrimeContext, VarSpec, trunc_exp
from xcartier.sheaves import (
    FlatSheaf,
    HiggsSheaf,
    check_flat,
    check_higgs,
    higgs_exponent,
    p_curvature,
)
from xcartier.transforms import (
    TransformError,
    canonical_connection,
    cartier,
    flat_sections,
    gauge_compare,
    inverse_cartier,
    p_curvature_sign,
    roundtrip_check,
    untwist,
)

T = VarSpec.make(["t"])


def a1_atlas(p=3):
    ctx = PrimeContext(p)
    atlas = Atlas(ctx)
    atlas.add_chart("A1", T)
    atlas.add_lift(FrobLift("A1", {"t": LaurentPoly.var(T, ctx.p2, "t", p)}))
    atlas.validate()
    return atlas


def n12(vars, p):
    return PolyMatrix.from_int_rows([[0, 1], [0, 0]], vars, p)


# ------------------------------------------------------- canonical connection


def test_canonical_connection_trivial():
    atlas = a1_atlas()
    E = HiggsSheaf(atlas, 2, {"A1": [PolyMatrix.zero(2, 2, T, 3)]})
    H = canonical_connection(E)
    assert H.conn["A1"][0].is_zero()
    assert p_curvature(H).is_zero()


def test_canonical_connection_frobenius_twists_transitions():
    scene = gallery("g4_p1_lemma", 3)
    atlas = scene.atlas
    ov = atlas.overlaps[("U0", "U1")]
    s = LaurentPoly.var(ov.alpha_vars, 3, "s")
    z = LaurentPoly.zero(ov.alpha_vars, 3)
    t_mat = PolyMatrix([[s, z], [z, s ** -1]])
    fields = {
        c: [PolyMatrix.zero(2, 2, atlas.chart_vars(c), 3)] for c in atlas.charts
    }
    E = HiggsSheaf(atlas, 2, fields, {("U0", "U1"): t_mat})
    H = canonical_connection(E)
    assert H.transitions[("U0", "U1")] == PolyMatrix([[s ** 3, z], [z, s ** -3]])
    assert p_curvature(H).is_zero()


def test_canonical_connection_rejects_nonzero_field():
    atlas = a1_atlas()
    E = HiggsSheaf(atlas, 2, {"A1": [n12(T, 3)]})
    with pytest.raises(TransformError):
        canonical_connection(E)


# ------------------------------------------------------- forward transform


def test_forward_zero_field_is_canonical():
    scene = gallery("g1_trivial", 3)
    assert inverse_cartier(scene.sheaf) == canonical_connection(scene.sheaf)


def test_forward_rank2_values_and_sign():
    scene = gallery("g2_a1_rank2", 3)
    H = inverse_cartier(scene.sheaf)
    assert H.conn["A1"][0] == n12(T, 3).scale(LaurentPoly.parse("t^2", T, 3))
    psi = p_curvature(H)
    assert psi.comps["A1"][0] == -n12(T, 3)
    assert p_curvature_sign(scene.sheaf, psi) == -1


def test_forward_nonconstant_field():
    # theta = t N dt pulls back to t^3 N and the p-curvature follows the sign law
    atlas = a1_atlas()
    theta = n12(T, 3).scale(LaurentPoly.parse("t", T, 3))
    E = HiggsSheaf(atlas, 2, {"A1": [theta]})
    H = inverse_cartier(E)
    assert H.conn["A1"][0] == n12(T, 3).scale(LaurentPoly.parse("t^5", T, 3))
    psi = p_curvature(H)
    assert psi.comps["A1"][0] == n12(T, 3).scale(LaurentPoly.parse("-t^3", T, 3))
    assert p_curvature_sign(E, psi) == -1


def test_forward_p1_gluing_matrix():
    scene = gallery("g5_p1_uniformizing", 3)
    H = inverse_cartier(scene.sheaf)
    ov = scene.atlas.overlaps[("U0", "U1")]
    s = LaurentPoly.var(ov.alpha_vars, 3, "s")
    z = LaurentPoly.zero(ov.alpha_vars, 3)
    assert H.transitions[("U0", "U1")] == PolyMatrix(
        [[s ** 3, z], [s ** 2, s ** -3]]
    )
    assert check_flat(H).ok()


def test_forward_rejects_non_nilpotent():
    atlas = a1_atlas()
    E = HiggsSheaf.__new__(HiggsSheaf)  # bypass constructor checks deliberately
    E.atlas = atlas
    E.rank = 1
    E.fields = {"A1": [PolyMatrix.identity(1, T, 3)]}
    E.transitions = {}
    with pytest.raises(TransformError):
        inverse_cartier(E)


def test_constructed_gluings_satisfy_triple_cocycle():
    # three liftings on one chart: G_bc G_ab = G_ac for the twisted gluings
    scene = gallery("g3_a1_three_lifts", 3)
    atlas, E = scene.atlas, scene.sheaf
    ctx = atlas.ctx
    imgs = [lift.images for lift in atlas.lifts["A1"]]
    theta_f = E.fields["A1"][0].frobenius()

    def g(a, b):
        return trunc_exp(theta_f.scale(h_pair(T, imgs[a], imgs[b], "t")), ctx)

    for a in range(3):
        for b in range(3):
            for c in range(3):
                assert g(b, c) @ g(a, b) == g(a, c)
    assert (g(1, 0) @ g(0, 1)).is_identity()


@pytest.mark.parametrize("p", [3, 5])
def test_rank_and_exponent_preserved(p):
    for name in ("g2_a1_rank2", "g5_p1_uniformizing", "g6_a2_rank3"):
        scene = gallery(name, p)
        E = scene.sheaf
        H = inverse_cartier(E)
        assert H.rank == E.rank
        E_rt = cartier(H)
        assert E_rt.rank == E.rank
        assert higgs_exponent(E_rt) == higgs_exponent(E)


# ------------------------------------------------------- descent


def test_flat_sections_trivial():
    atlas = a1_atlas()
    H = FlatSheaf(atlas, 1, {"A1": [PolyMatrix.zero(1, 1, T, 3)]})
    res = flat_sections(H)
    assert res.frames["A1"].is_identity()
    assert res.rank == 1


@pytest.mark.parametrize("p", [3, 5])
def test_flat_sections_torus_frames(p):
    for c in range(1, p):
        scene = gallery("g7_gm_rank1", p, c=c)
        res = flat_sections(scene.sheaf)
        vars = scene.atlas.chart_vars("Gm")
        assert res.frames["Gm"] == PolyMatrix([[LaurentPoly.var(vars, p, "t", p - c)]])


def test_flat_sections_torus_residue_zero():
    scene = gallery("g7_gm_rank1", 3, c=0)
    res = flat_sections(scene.sheaf)
    assert res.frames["Gm"].is_identity()


def test_flat_sections_constant_nilpotent_frame():
    atlas = a1_atlas()
    H = FlatSheaf(atlas, 2, {"A1": [n12(T, 3)]})
    res = flat_sections(H)
    expected = PolyMatrix.identity(2, T, 3) - n12(T, 3).scale(LaurentPoly.parse("t", T, 3))
    assert res.frames["A1"] == expected
    assert res.frames["A1"].det().is_one()


def test_flat_sections_rejects_nonzero_p_curvature():
    atlas = a1_atlas()
    a = n12(T, 3).scale(LaurentPoly.parse("t^2", T, 3))
    H = FlatSheaf(atlas, 2, {"A1": [a]})
    with pytest.raises(TransformError, match="p-curvature"):
        flat_sections(H)


def test_flat_sections_frame_above_the_connection_degree():
    atlas = a1_atlas()
    a = n12(T, 3).scale(LaurentPoly.parse("t^3", T, 3))  # frame has degree 4
    H = FlatSheaf(atlas, 2, {"A1": [a]})
    res = flat_sections(H)
    expected = PolyMatrix.identity(2, T, 3) - n12(T, 3).scale(
        LaurentPoly.parse("t^4", T, 3)
    )
    assert res.frames["A1"] == expected


@pytest.mark.parametrize(
    "names, inverted", [(["t"], []), (["t"], ["t"]), (["t", "u"], [])]
)
def test_flat_sections_frame_outside_the_projected_generators(names, inverted):
    # connection with flat frame F, F^-1 = [[1 + t^3, t^2], [t, 1]] at p=3: the
    # projected generators span the flat sections over the p-th powers, but off
    # the torus no two of them have a unit determinant; the frame comes from
    # their echelon form
    vars = VarSpec.make(names, inverted)
    ctx = PrimeContext(3)
    atlas = Atlas(ctx)
    atlas.add_chart("C", vars)
    atlas.add_lift(FrobLift("C", {n: LaurentPoly.var(vars, ctx.p2, n, 3) for n in names}))
    atlas.validate()
    inv = PolyMatrix(
        [[LaurentPoly.parse(x, vars, 3) for x in row] for row in [["1 + t^3", "t^2"], ["t", "1"]]]
    )
    frame = inv.inverse_unit_det()
    H = FlatSheaf(atlas, 2, {"C": [-(frame.deriv(n) @ inv) for n in names]})
    expected = PolyMatrix(
        [[LaurentPoly.parse(x, vars, 3) for x in row] for row in [["1", "-t^2"], ["-t", "1 + t^3"]]]
    )
    assert flat_sections(H).frames["C"] == expected
    assert cartier(H).is_zero_field()


def test_echelon_step_needs_comparable_leading_monomials():
    vars = VarSpec.make(["t", "u"])
    t3, u3 = (LaurentPoly.var(vars, 3, n, 3) for n in ("t", "u"))
    lead = (0, (0, 0))
    # one variable's worth of Euclid: t^3 and t^3 + 1 reduce to the unit 1
    one_var = transforms._echelon_insert({lead: [t3]}, [t3 + LaurentPoly.one(vars, 3)], 3)
    assert [c[0] for c in one_var.values()] == [LaurentPoly.one(vars, 3)]
    # t^3 and u^3: neither leading monomial divides the other
    assert transforms._echelon_insert({lead: [t3]}, [u3], 3) is None


def test_cartier_rejects_p_curvature_exponent_above_bound():
    atlas = a1_atlas()
    m = PolyMatrix.from_int_rows(
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]], T, 3
    ).scale(LaurentPoly.parse("t^2", T, 3))
    H = FlatSheaf(atlas, 3, {"A1": [m]})  # psi has exponent 3 > p-1
    with pytest.raises(TransformError, match="nilpotent"):
        cartier(H)


def test_flat_sections_descended_transitions_relabel():
    # P1 canonical connection: transitions diag(s^3, s^-3) descend to diag(s, s^-1)
    scene = gallery("g5_p1_uniformizing", 3)
    E0 = scene.sheaf
    zero_fields = {
        c: [PolyMatrix.zero(2, 2, scene.atlas.chart_vars(c), 3)] for c in scene.atlas.charts
    }
    E = HiggsSheaf(scene.atlas, 2, zero_fields, E0.transitions)
    res = flat_sections(canonical_connection(E))
    assert res.transitions[("U0", "U1")] == E0.transitions[("U0", "U1")]
    pre = res.pre_relabel[("U0", "U1")]
    assert all(
        all(e % 3 == 0 for exps in entry.terms for e in exps)
        for row in pre.entries for entry in row
    )


# ------------------------------------------------------- converse transform


def test_cartier_of_trivial_connection():
    atlas = a1_atlas()
    H = FlatSheaf(atlas, 2, {"A1": [PolyMatrix.zero(2, 2, T, 3)]})
    E = cartier(H)
    assert E.fields["A1"][0].is_zero()


def test_cartier_full_pipeline_on_forward_image():
    scene = gallery("g2_a1_rank2", 3)
    H = inverse_cartier(scene.sheaf)
    untwisted, psi = untwist(H)
    assert untwisted.conn["A1"][0].is_zero()  # zeta(psi) cancels the connection
    assert p_curvature(untwisted).is_zero()
    E_rt = cartier(H)
    assert E_rt.fields["A1"][0] == -n12(T, 3)


def test_cartier_constant_nilpotent_connection():
    atlas = a1_atlas()
    H = FlatSheaf(atlas, 2, {"A1": [n12(T, 3)]})
    E = cartier(H)  # psi = N^p = 0, so this is pure descent
    assert E.fields["A1"][0].is_zero()


@pytest.mark.parametrize("c", [0, 1, 2])
def test_cartier_torus_rank_one(c):
    scene = gallery("g7_gm_rank1", 3, c=c)
    E = cartier(scene.sheaf)
    assert E.fields["Gm"][0].is_zero()
    assert check_higgs(E).ok()


def zero_field(E):
    zero = {
        c: [PolyMatrix.zero(E.rank, E.rank, m.vars, m.modulus) for m in mats]
        for c, mats in E.fields.items()
    }
    return HiggsSheaf(E.atlas, E.rank, zero, E.transitions)


UNTWIST_CASES = [(name, p, 0) for name in GALLERY_NAMES[:6] for p in (3, 5, 7)] + [
    ("g3_a1_three_lifts", p, k) for p in (3, 5, 7) for k in (1, 2)
]


@pytest.mark.parametrize("name,p,lift", UNTWIST_CASES)
def test_untwist_undoes_the_forward_twist(name, p, lift):
    # psi = -F*theta, so the converse twist cancels the forward one exactly
    E = gallery(name, p).sheaf
    lift_choice = {"A1": lift} if lift else None
    untwisted, _ = untwist(inverse_cartier(E, lift_choice), lift_choice)
    assert untwisted == canonical_connection(zero_field(E))


def count_calls(monkeypatch, name):
    """Record the calls to a sheaves function, under every name the library uses."""
    original = getattr(sheaves, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (sheaves, transforms):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name", ["g5_p1_uniformizing", "g6_a2_rank3"])
def test_transforms_check_each_invariant_once(monkeypatch, name):
    E = gallery(name, 3).sheaf
    scans = count_calls(monkeypatch, "nilpotency_exponent")
    H = inverse_cartier(E)
    assert len(scans) == len(E.atlas.charts)  # check_higgs, once per chart
    curvatures = count_calls(monkeypatch, "p_curvature")
    cartier(H)
    # the input's in untwist, the untwisted sheaf's in flat_sections
    assert len(curvatures) == 2


# ------------------------------------------------------- gauge comparison


def test_gauge_compare_equal_inputs_identity():
    scene = gallery("g2_a1_rank2", 3)
    w = gauge_compare(scene.sheaf, scene.sheaf)
    assert w is not None
    assert w.gauges["A1"].is_identity()


def test_gauge_compare_sign_flip():
    atlas = a1_atlas()
    E1 = HiggsSheaf(atlas, 2, {"A1": [n12(T, 3)]})
    E2 = E1.negated()
    w = gauge_compare(E1, E2)
    assert w is not None
    g = w.gauges["A1"]
    # conjugation by any witness must negate N; diag(1,-1) is the canonical one
    assert g @ E1.fields["A1"][0] == E2.fields["A1"][0] @ g


def test_gauge_compare_distinguishes_exponents():
    atlas = a1_atlas()
    E1 = HiggsSheaf(atlas, 2, {"A1": [n12(T, 3)]})
    E2 = HiggsSheaf(atlas, 2, {"A1": [PolyMatrix.zero(2, 2, T, 3)]})
    assert gauge_compare(E1, E2) is None


def test_gauge_compare_finds_witness_across_charts():
    # twist g5's transitions by a constant unipotent gauge and recover it
    scene = gallery("g5_p1_uniformizing", 3)
    E = scene.sheaf
    atlas = scene.atlas
    g = {
        c: PolyMatrix.from_int_rows([[1, 0], [1, 1]], atlas.chart_vars(c), 3)
        for c in atlas.charts
    }
    ov = atlas.overlaps[("U0", "U1")]
    g_ov = PolyMatrix.from_int_rows([[1, 0], [1, 1]], ov.alpha_vars, 3)
    twisted_t = g_ov @ E.transitions[("U0", "U1")] @ g_ov.inverse_unit_det()
    twisted_fields = {
        c: [g[c] @ E.fields[c][0] @ g[c].inverse_unit_det()] for c in atlas.charts
    }
    E2 = HiggsSheaf(atlas, 2, twisted_fields, {("U0", "U1"): twisted_t})
    assert check_higgs(E2).ok()
    w = gauge_compare(E, E2)
    assert w is not None
    from xcartier.transforms import verify_gauge_witness
    assert verify_gauge_witness(E, E2, w.gauges, flat=False)


def test_gauge_compare_flat_variant_lift_independence():
    scene = gallery("g2_a1_rank2", 3)
    h0 = inverse_cartier(scene.sheaf, {"A1": 0})
    h1 = inverse_cartier(scene.sheaf, {"A1": 1})
    w = gauge_compare(h0, h1, flat=True)
    assert w is not None
    g = w.gauges["A1"]
    g_inv = g.inverse_unit_det()
    lhs = g @ h0.conn["A1"][0] @ g_inv - g.deriv("t") @ g_inv
    assert lhs == h1.conn["A1"][0]


# ------------------------------------------------------- twisted-bundle stress


def quadratic_twist_bundle(p):
    """Line-bundle sum with transition diag(s^2, s^-2) and field s*E21 ds."""
    from xcartier.gallery import _p1_atlas

    ctx = PrimeContext(p)
    atlas = _p1_atlas(ctx)
    ov = atlas.overlaps[("U0", "U1")]
    sv, wv = atlas.chart_vars("U0"), atlas.chart_vars("U1")
    z = LaurentPoly.zero(ov.alpha_vars, p)
    t_mat = PolyMatrix([
        [LaurentPoly.var(ov.alpha_vars, p, "s", 2), z],
        [z, LaurentPoly.var(ov.alpha_vars, p, "s", -2)],
    ])
    th0 = PolyMatrix([
        [LaurentPoly.zero(sv, p), LaurentPoly.zero(sv, p)],
        [LaurentPoly.var(sv, p, "s"), LaurentPoly.zero(sv, p)],
    ])
    th1 = PolyMatrix([
        [LaurentPoly.zero(wv, p), LaurentPoly.zero(wv, p)],
        [LaurentPoly.monomial(wv, p, -1, (1,)), LaurentPoly.zero(wv, p)],
    ])
    return HiggsSheaf(atlas, 2, {"U0": [th0], "U1": [th1]}, {("U0", "U1"): t_mat})


@pytest.mark.parametrize("p", [3, 5])
def test_nonconstant_field_on_twisted_bundle(p):
    E = quadratic_twist_bundle(p)
    assert check_higgs(E).ok()
    H = inverse_cartier(E)
    assert check_flat(H).ok()
    assert p_curvature_sign(E, p_curvature(H)) == -1
    rep, rt = roundtrip_check(E)
    assert rep.ok()
    assert rt == E.negated()


def rank3_twist_bundle(p):
    """Rank 3 over P1 with a two-step field, so the gluing exponential
    carries a genuine quadratic term."""
    from xcartier.gallery import _p1_atlas

    ctx = PrimeContext(p)
    atlas = _p1_atlas(ctx)
    ov = atlas.overlaps[("U0", "U1")]
    sv, wv = atlas.chart_vars("U0"), atlas.chart_vars("U1")
    z = LaurentPoly.zero(ov.alpha_vars, p)
    s = LaurentPoly.var(ov.alpha_vars, p, "s")
    t_mat = PolyMatrix([
        [s ** 2, z, z],
        [z, LaurentPoly.one(ov.alpha_vars, p), z],
        [z, z, s ** -2],
    ])

    def two_step(vars, sign):
        zz = LaurentPoly.zero(vars, p)
        c = LaurentPoly.const(vars, p, sign)
        return PolyMatrix([[zz, zz, zz], [c, zz, zz], [zz, c, zz]])

    return HiggsSheaf(
        atlas, 3,
        {"U0": [two_step(sv, 1)], "U1": [two_step(wv, -1)]},
        {("U0", "U1"): t_mat},
    )


def test_two_variable_two_chart_round_trip():
    # plane charts glued by a translation in the first coordinate, one chart
    # carrying a perturbed lifting in the second
    from xcartier.atlas import Atlas, FrobLift, Overlap, SubstPair, verify_deligne_illusie

    p = 3
    ctx = PrimeContext(p)
    xv, yv = VarSpec.make(["x1", "x2"]), VarSpec.make(["y1", "y2"])
    atlas = Atlas(ctx)
    atlas.add_chart("W0", xv)
    atlas.add_chart("W1", yv)

    def sp(text, vars, m):
        return LaurentPoly.parse(text, vars, m)

    atlas.add_overlap(Overlap(
        "W0", "W1", xv, yv,
        beta_in_alpha={"y1": pair_sub("x1 - 1", xv, p), "y2": pair_sub("x2", xv, p)},
        alpha_in_beta={"x1": pair_sub("y1 + 1", yv, p), "x2": pair_sub("y2", yv, p)},
    ))
    atlas.add_lift(FrobLift("W0", {"x1": sp("x1^3", xv, 9), "x2": sp("x2^3 + 3*x2", xv, 9)}))
    atlas.add_lift(FrobLift("W1", {"y1": sp("y1^3", yv, 9), "y2": sp("y2^3", yv, 9)}))
    atlas.validate()
    assert verify_deligne_illusie(atlas).ok()

    def components(vars):
        z = LaurentPoly.zero(vars, p)
        o = LaurentPoly.one(vars, p)
        e12 = PolyMatrix([[z, o, z], [z, z, z], [z, z, z]])
        e13 = PolyMatrix([[z, z, o], [z, z, z], [z, z, z]])
        return [e12, e13]

    E = HiggsSheaf(
        atlas, 3,
        {"W0": components(xv), "W1": components(yv)},
        {("W0", "W1"): PolyMatrix.identity(3, xv, p)},
    )
    H = inverse_cartier(E)
    assert check_flat(H).ok()
    assert p_curvature_sign(E, p_curvature(H)) == -1
    rep, rt = roundtrip_check(E)
    assert rep.ok()
    assert rt == E.negated()


def pair_sub(text, vars, p):
    from xcartier.atlas import SubstPair

    return SubstPair(
        LaurentPoly.parse(text, vars, p), LaurentPoly.parse(text, vars, p * p)
    )


def test_rank3_gluing_with_quadratic_exponential_term():
    E = rank3_twist_bundle(5)
    assert higgs_exponent(E) == 3
    H = inverse_cartier(E)
    assert check_flat(H).ok()
    corner = H.transitions[("U0", "U1")].entries[2][0]
    assert corner == LaurentPoly.parse("3*s^8", corner.vars, 5)  # h^2/2! survives
    rep, rt = roundtrip_check(E)
    assert rep.ok()
    assert rt == E.negated()


# ------------------------------------------------------- round trips


@pytest.mark.parametrize("name", ["g1_trivial", "g2_a1_rank2", "g6_a2_rank3"])
def test_roundtrip_exact_on_single_chart(name):
    scene = gallery(name, 3)
    rep, rt = roundtrip_check(scene.sheaf)
    assert rep.ok()
    assert rt == scene.sheaf.negated()


def test_roundtrip_exact_on_the_plane_at_p23():
    E = gallery("g6_a2_rank3", 23).sheaf
    assert cartier(inverse_cartier(E)) == E.negated()


def test_roundtrip_zero_field_is_fixed():
    scene = gallery("g1_trivial", 3)
    rep, rt = roundtrip_check(scene.sheaf)
    assert rep.ok()
    assert rt == scene.sheaf  # -0 = 0


def test_roundtrip_p1():
    scene = gallery("g5_p1_uniformizing", 3)
    rep, rt = roundtrip_check(scene.sheaf)
    assert rep.ok()
    witness = gauge_compare(rt, scene.sheaf.negated())
    assert witness is not None
