import pytest
from hypothesis import given, settings, strategies as st

from xcartier.atlas import (
    Atlas,
    AtlasError,
    FrobLift,
    h_pair,
    lift_on_overlap,
    verify_deligne_illusie,
    zeta_form,
)
from xcartier.gallery import gallery
from xcartier.ring import LaurentPoly, OneForm, PolyMatrix, PrimeContext, VarSpec, d, divide_by_p

T = VarSpec.make(["t"])


def a1_atlas(p, *lift_texts):
    ctx = PrimeContext(p)
    atlas = Atlas(ctx)
    atlas.add_chart("A1", T)
    for text in lift_texts:
        atlas.add_lift(FrobLift("A1", {"t": LaurentPoly.parse(text, T, ctx.p2)}))
    atlas.validate()
    return atlas


# ---------------------------------------------------------------- zeta


def test_zeta_standard_lift():
    atlas = a1_atlas(3, "t^3")
    form = zeta_form(T, atlas.lifts["A1"][0].images, "t")
    assert form == OneForm(T, (LaurentPoly.parse("t^2", T, 3),))


def test_zeta_perturbed_lift():
    atlas = a1_atlas(3, "t^3 + 3*t")
    form = zeta_form(T, atlas.lifts["A1"][0].images, "t")
    assert form == OneForm(T, (LaurentPoly.parse("t^2 + 1", T, 3),))


def test_zeta_on_p1_overlap_through_unit_inversion():
    scene = gallery("g4_p1_lemma", 3)
    ov = scene.atlas.overlaps[("U0", "U1")]
    images = lift_on_overlap(scene.atlas, ov, scene.atlas.lifts["U1"][0])
    # the other chart's lifting, written here: s^3 - 3*s^5
    assert images["s"] == LaurentPoly.parse("6*s^5 + s^3", ov.alpha_vars, 9)
    form = zeta_form(ov.alpha_vars, images, "s")
    assert form.coeffs[0] == LaurentPoly.parse("s^4 + s^2", ov.alpha_vars, 3)


def test_zeta_independent_of_coefficient_lift():
    # both mod-p**2 lifts of the same coefficient give one answer
    atlas = a1_atlas(3, "t^3 + 3*t")
    images = atlas.lifts["A1"][0].images
    g_lift1 = LaurentPoly.parse("t^2 + 1", T, 9)
    g_lift2 = LaurentPoly.parse("t^2 + 3*t^5 + 1", T, 9)
    results = []
    for g in (g_lift1, g_lift2):
        fg = g.subst(images, T)
        results.append(divide_by_p(fg * images["t"].deriv("t")))
    assert results[0] == results[1]
    zeta = zeta_form(T, images, "t").coeffs[0]
    assert results[0] == g_lift1.reduce_mod(3).frobenius() * zeta


# ---------------------------------------------------------------- h


def test_h_vanishes_for_identical_lifts():
    atlas = a1_atlas(3, "t^3", "t^3")
    imgs = [lift.images for lift in atlas.lifts["A1"]]
    assert h_pair(T, imgs[0], imgs[1], "t").is_zero()


def test_h_on_the_affine_line():
    atlas = a1_atlas(3, "t^3", "t^3 + 3*t")
    imgs = [lift.images for lift in atlas.lifts["A1"]]
    assert h_pair(T, imgs[0], imgs[1], "t") == LaurentPoly.parse("-t", T, 3)


def test_h_on_p1_overlap():
    scene = gallery("g4_p1_lemma", 3)
    ov = scene.atlas.overlaps[("U0", "U1")]
    img_a = lift_on_overlap(scene.atlas, ov, scene.atlas.lifts["U0"][0])
    img_b = lift_on_overlap(scene.atlas, ov, scene.atlas.lifts["U1"][0])
    assert h_pair(ov.alpha_vars, img_a, img_b, "s") == LaurentPoly.parse(
        "s^5", ov.alpha_vars, 3
    )


def test_h_is_linear_over_functions():
    # h(g (x) dt) := g * h(1 (x) dt) by construction; check monomial multiples
    atlas = a1_atlas(3, "t^3", "t^3 + 3*t")
    imgs = [lift.images for lift in atlas.lifts["A1"]]
    h = h_pair(T, imgs[0], imgs[1], "t")
    g = LaurentPoly.parse("2*t^4", T, 3)
    assert g * h == LaurentPoly.parse("-2*t^5", T, 3)


# ---------------------------------------------------------------- the lemma


def test_three_lift_cocycle_values():
    atlas = a1_atlas(3, "t^3", "t^3 + 3*t", "t^3 + 3*t^2")
    imgs = [lift.images for lift in atlas.lifts["A1"]]
    h12 = h_pair(T, imgs[0], imgs[1], "t")
    h23 = h_pair(T, imgs[1], imgs[2], "t")
    h13 = h_pair(T, imgs[0], imgs[2], "t")
    assert h12 == LaurentPoly.parse("-t", T, 3)
    assert h23 == LaurentPoly.parse("t - t^2", T, 3)
    assert h13 == LaurentPoly.parse("-t^2", T, 3)
    assert h12 + h23 == h13
    rep = verify_deligne_illusie(atlas)
    assert rep.ok()


def test_p1_coboundary_identity_both_sides():
    scene = gallery("g4_p1_lemma", 3)
    ov = scene.atlas.overlaps[("U0", "U1")]
    img_a = lift_on_overlap(scene.atlas, ov, scene.atlas.lifts["U0"][0])
    img_b = lift_on_overlap(scene.atlas, ov, scene.atlas.lifts["U1"][0])
    h = h_pair(ov.alpha_vars, img_a, img_b, "s")
    lhs = d(h)
    rhs = zeta_form(ov.alpha_vars, img_a, "s") - zeta_form(ov.alpha_vars, img_b, "s")
    assert lhs == rhs
    assert lhs.coeffs[0] == LaurentPoly.parse("2*s^4", ov.alpha_vars, 3)
    assert verify_deligne_illusie(scene.atlas).ok()


def test_single_lift_atlas_vacuously_passes():
    atlas = a1_atlas(3, "t^3")
    rep = verify_deligne_illusie(atlas)
    assert rep.ok()
    assert all(e.status == "skip" for e in rep.entries)


@given(st.lists(st.integers(0, 2), min_size=4, max_size=4),
       st.lists(st.integers(0, 2), min_size=4, max_size=4))
@settings(max_examples=30)
def test_lemma_for_random_lift_perturbations(coeffs1, coeffs2):
    p = 3
    base = "t^3"

    def lift_text(coeffs):
        parts = [base] + [f"{p * c}*t^{i}" for i, c in enumerate(coeffs) if c]
        return " + ".join(parts)

    atlas = a1_atlas(p, base, lift_text(coeffs1), lift_text(coeffs2))
    assert verify_deligne_illusie(atlas).ok()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lemma_on_gallery_scenes(p):
    for name in ("g3_a1_three_lifts", "g4_p1_lemma"):
        assert verify_deligne_illusie(gallery(name, p).atlas).ok()


# ------------------------------------------------------- translation gluing


def translation_atlas(p):
    """Two affine charts glued by y = x - 1; both carry the monomial lifting."""
    from xcartier.atlas import Overlap, SubstPair

    ctx = PrimeContext(p)
    xv, yv = VarSpec.make(["x"]), VarSpec.make(["y"])
    atlas = Atlas(ctx)
    atlas.add_chart("V0", xv)
    atlas.add_chart("V1", yv)
    atlas.add_overlap(Overlap(
        "V0", "V1", xv, yv,
        beta_in_alpha={"y": SubstPair(
            LaurentPoly.parse("x - 1", xv, p), LaurentPoly.parse("x - 1", xv, p * p))},
        alpha_in_beta={"x": SubstPair(
            LaurentPoly.parse("y + 1", yv, p), LaurentPoly.parse("y + 1", yv, p * p))},
    ))
    atlas.add_lift(FrobLift("V0", {"x": LaurentPoly.var(xv, ctx.p2, "x", p)}))
    atlas.add_lift(FrobLift("V1", {"y": LaurentPoly.var(yv, ctx.p2, "y", p)}))
    atlas.validate()
    return atlas


def test_translation_homotopy_value():
    # (x^p - ((x-1)^p + 1))/p for the two monomial liftings
    atlas = translation_atlas(3)
    ov = atlas.overlaps[("V0", "V1")]
    img_a = lift_on_overlap(atlas, ov, atlas.lifts["V0"][0])
    img_b = lift_on_overlap(atlas, ov, atlas.lifts["V1"][0])
    h = h_pair(ov.alpha_vars, img_a, img_b, "x")
    assert h == LaurentPoly.parse("x^2 - x", ov.alpha_vars, 3)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_translation_atlas_satisfies_the_lemma(p):
    assert verify_deligne_illusie(translation_atlas(p)).ok()


@pytest.mark.parametrize("p", [3, 5])
def test_translation_atlas_full_transform_round_trip(p):
    from xcartier.sheaves import HiggsSheaf, check_flat
    from xcartier.transforms import inverse_cartier, roundtrip_check

    atlas = translation_atlas(p)
    xv, yv = atlas.chart_vars("V0"), atlas.chart_vars("V1")
    n_x = PolyMatrix.from_int_rows([[0, 1], [0, 0]], xv, p)
    n_y = PolyMatrix.from_int_rows([[0, 1], [0, 0]], yv, p)
    ov = atlas.overlaps[("V0", "V1")]
    E = HiggsSheaf(
        atlas, 2, {"V0": [n_x], "V1": [n_y]},
        {("V0", "V1"): PolyMatrix.identity(2, ov.alpha_vars, p)},
    )
    H = inverse_cartier(E)
    assert check_flat(H).ok()
    rep, rt = roundtrip_check(E)
    assert rep.ok()
    assert rt == E.negated()


# ---------------------------------------------------------------- validation


def test_bad_lift_rejected():
    ctx = PrimeContext(3)
    atlas = Atlas(ctx)
    atlas.add_chart("A1", T)
    atlas.add_lift(FrobLift("A1", {"t": LaurentPoly.parse("t^3 + t", T, 9)}))
    with pytest.raises(AtlasError, match="congruent"):
        atlas.validate()


def test_missing_lift_rejected():
    ctx = PrimeContext(3)
    atlas = Atlas(ctx)
    atlas.add_chart("A1", T)
    with pytest.raises(AtlasError, match="no Frobenius lifting"):
        atlas.validate()
