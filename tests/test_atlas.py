import pytest
import xcartier.atlas
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
from xcartier.ring import LaurentPoly, PolyMatrix, PrimeContext, VarSpec, divide_by_p, jacobian

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
    form = zeta_form(T, atlas.lifts["A1"][0].images)
    assert form == PolyMatrix([[LaurentPoly.parse("t^2", T, 3)]])


def test_zeta_perturbed_lift():
    atlas = a1_atlas(3, "t^3 + 3*t")
    form = zeta_form(T, atlas.lifts["A1"][0].images)
    assert form == PolyMatrix([[LaurentPoly.parse("t^2 + 1", T, 3)]])


def test_zeta_on_p1_overlap_through_unit_inversion():
    scene = gallery("g4_p1_lemma", 3)
    ov = scene.atlas.overlaps[("U0", "U1")]
    images = lift_on_overlap(scene.atlas, ov, scene.atlas.lifts["U1"][0])
    # the other chart's lifting, written here: s^3 - 3*s^5
    assert images["s"] == LaurentPoly.parse("6*s^5 + s^3", ov.alpha_vars, 9)
    form = zeta_form(ov.alpha_vars, images)
    assert form == PolyMatrix([[LaurentPoly.parse("s^4 + s^2", ov.alpha_vars, 3)]])


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
    zeta = zeta_form(T, images).entries[0][0]
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
    lhs = jacobian([h])
    rhs = zeta_form(ov.alpha_vars, img_a) - zeta_form(ov.alpha_vars, img_b)
    assert lhs == rhs
    assert lhs == PolyMatrix([[LaurentPoly.parse("2*s^4", ov.alpha_vars, 3)]])
    assert verify_deligne_illusie(scene.atlas).ok()


def test_lemma_failure_names_exactly_the_entries_using_the_broken_homotopy(monkeypatch):
    # add t^2 to h_01 alone: d h_01 and h_10 = -h_01 fail, and so does every cocycle using h_01
    atlas = gallery("g3_a1_three_lifts", 5).atlas
    images = [lift.images for lift in atlas.lifts["A1"]]
    real_h_pair = xcartier.atlas.h_pair
    calls = []

    def broken_h_pair(vars, img_a, img_b, coord):
        calls.append((img_a, img_b))
        h = real_h_pair(vars, img_a, img_b, coord)
        if (img_a, img_b) == (images[0], images[1]):
            h = h + LaurentPoly.var(vars, 5, coord, 2)
        return h

    monkeypatch.setattr(xcartier.atlas, "h_pair", broken_h_pair)
    rep = verify_deligne_illusie(atlas)
    assert len(calls) == 6  # one per ordered pair of the three liftings
    failed = [e.check for e in rep.failures()]
    assert failed == [
        "chart:A1: d(h) = zeta difference [A1#0,A1#1]",
        "chart:A1: d(h) = zeta difference [A1#1,A1#0]",
        "chart:A1: cocycle [A1#0,A1#1,A1#2]",
        "chart:A1: cocycle [A1#0,A1#2,A1#1]",
        "chart:A1: cocycle [A1#2,A1#0,A1#1]",
    ]
    assert all(e.witness for e in rep.failures())
    assert len(rep.entries) == 12 and all(e.status == "pass" for e in rep.entries
                                          if e.check not in failed)


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


def translation_overlap(p, shift):
    """V0 and V1 glued by y = x - shift."""
    from xcartier.atlas import Overlap, SubstPair

    xv, yv = VarSpec.make(["x"]), VarSpec.make(["y"])
    return Overlap(
        "V0", "V1", xv, yv,
        beta_in_alpha={"y": SubstPair(LaurentPoly.parse(f"x - {shift}", xv, p),
                                      LaurentPoly.parse(f"x - {shift}", xv, p * p))},
        alpha_in_beta={"x": SubstPair(LaurentPoly.parse(f"y + {shift}", yv, p),
                                      LaurentPoly.parse(f"y + {shift}", yv, p * p))},
    )


def translation_atlas(p, shift=1):
    """Two affine charts glued by y = x - shift; both carry the monomial lifting."""
    ctx = PrimeContext(p)
    xv, yv = VarSpec.make(["x"]), VarSpec.make(["y"])
    atlas = Atlas(ctx)
    atlas.add_chart("V0", xv)
    atlas.add_chart("V1", yv)
    atlas.add_overlap(translation_overlap(p, shift))
    atlas.add_lift(FrobLift("V0", {"x": LaurentPoly.var(xv, ctx.p2, "x", p)}))
    atlas.add_lift(FrobLift("V1", {"y": LaurentPoly.var(yv, ctx.p2, "y", p)}))
    atlas.validate()
    return atlas


def translation_sheaf(atlas):
    """The constant nilpotent rank-2 Higgs field on both charts, glued by the identity."""
    from xcartier.sheaves import HiggsSheaf

    p = atlas.ctx.p
    n_x, n_y = (PolyMatrix.from_int_rows([[0, 1], [0, 0]], atlas.chart_vars(c), p)
                for c in ("V0", "V1"))
    pair = ("V0", "V1")
    return HiggsSheaf(atlas, 2, {"V0": [n_x], "V1": [n_y]},
                      {pair: PolyMatrix.identity(2, atlas.overlaps[pair].alpha_vars, p)})


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
    from xcartier.sheaves import check_flat
    from xcartier.transforms import inverse_cartier, roundtrip_check

    E = translation_sheaf(translation_atlas(p))
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


def test_lift_choice_names_exactly_one_lifting():
    from xcartier.transforms import inverse_cartier, lift_change_gauge

    E = gallery("g3_a1_three_lifts", 3).sheaf
    assert E.atlas.lift_for("A1", {"A1": 2}) is E.atlas.lifts["A1"][2]
    for choice, message in (({"A1": -1}, "no Frobenius lifting #-1"),
                            ({"A1": 3}, "no Frobenius lifting #3"),
                            ({"A2": 2}, r"lifting choice names no chart: \['A2'\]")):
        with pytest.raises(AtlasError, match=message):
            inverse_cartier(E, choice)
        with pytest.raises(AtlasError, match=message):
            lift_change_gauge(E, {"A1": 0}, choice)


# ---------------------------------------------------------------- memo


def test_adding_a_lift_clears_the_memo():
    from xcartier.transforms import inverse_cartier

    atlas = translation_atlas(5)
    E = translation_sheaf(atlas)
    before = inverse_cartier(E)
    assert atlas._memo
    yv = atlas.chart_vars("V1")
    other = FrobLift("V1", {"y": LaurentPoly.parse("y^5 + 5*y^2", yv, 25)})
    atlas.add_lift(other)
    assert atlas._memo == {}
    fresh = translation_atlas(5)
    fresh.add_lift(other)
    fresh.validate()
    after = inverse_cartier(E, {"V1": 1})
    assert after == inverse_cartier(translation_sheaf(fresh), {"V1": 1}) and after != before
    assert inverse_cartier(E) == before


def test_replacing_an_overlap_clears_the_memo():
    from xcartier.transforms import cartier, inverse_cartier

    atlas = translation_atlas(5)
    E = translation_sheaf(atlas)
    before = inverse_cartier(E)
    assert atlas._memo
    atlas.add_overlap(translation_overlap(5, 2))  # replaces the pair (V0, V1)
    assert atlas._memo == {}
    after = inverse_cartier(E)
    fresh = translation_sheaf(translation_atlas(5, 2))
    assert after == inverse_cartier(fresh) and after != before
    assert cartier(after) == cartier(inverse_cartier(fresh)) == E.negated()
