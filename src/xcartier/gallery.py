"""Built-in example scenes: affine line, affine plane, torus and P1 models.

Each scene is built for a caller-chosen odd prime so the same geometry can
be exercised at several characteristics.  The P1 scenes carry the standard
two-chart atlas with s*w = 1 and deliberately different Frobenius liftings
on the two charts; the rank-two P1 sheaf is the direct sum of the two
tautological line bundles with the constant field between them.
"""

from __future__ import annotations

from .atlas import Atlas, FrobLift, Overlap
from .ring import LaurentPoly, PolyMatrix, PrimeContext, VarSpec
from .scene import Scene
from .sheaves import FlatSheaf, HiggsSheaf

GALLERY_NAMES = (
    "g1_trivial",
    "g2_a1_rank2",
    "g3_a1_three_lifts",
    "g4_p1_lemma",
    "g5_p1_uniformizing",
    "g6_a2_rank3",
    "g7_gm_rank1",
)


def _a1_atlas(ctx: PrimeContext, extra_lifts: int = 0) -> Atlas:
    """Affine line with liftings t^p, t^p + p*t, t^p + p*t^2, ..."""
    vars = VarSpec.make(["t"])
    atlas = Atlas(ctx)
    atlas.add_chart("A1", vars)
    p, p2 = ctx.p, ctx.p2
    base = LaurentPoly.var(vars, p2, "t", p)
    atlas.add_lift(FrobLift("A1", {"t": base}))
    for k in range(1, extra_lifts + 1):
        perturb = LaurentPoly.monomial(vars, p2, p, (k,))
        atlas.add_lift(FrobLift("A1", {"t": base + perturb}))
    return atlas


def _p1_atlas(ctx: PrimeContext) -> Atlas:
    p, p2 = ctx.p, ctx.p2
    s_vars = VarSpec.make(["s"])
    w_vars = VarSpec.make(["w"])
    atlas = Atlas(ctx)
    atlas.add_chart("U0", s_vars)
    atlas.add_chart("U1", w_vars)
    ov_a = s_vars.with_inverted(["s"])
    ov_b = w_vars.with_inverted(["w"])
    atlas.add_overlap(Overlap("U0", "U1", ov_a, ov_b,
                              beta_in_alpha={"w": LaurentPoly.var(ov_a, p2, "s", -1)},
                              alpha_in_beta={"s": LaurentPoly.var(ov_b, p2, "w", -1)}))
    atlas.add_lift(FrobLift("U0", {"s": LaurentPoly.var(s_vars, p2, "s", p)}))
    atlas.add_lift(
        FrobLift(
            "U1",
            {"w": LaurentPoly.var(w_vars, p2, "w", p)
                  + LaurentPoly.monomial(w_vars, p2, p, (1,))},
        )
    )
    return atlas


def _zero_higgs(atlas: Atlas, rank: int, transitions=None) -> HiggsSheaf:
    fields = {
        chart: [PolyMatrix.zero(rank, rank, atlas.chart_vars(chart), atlas.ctx.p)
                for _ in atlas.chart_vars(chart).names]
        for chart in atlas.charts
    }
    return HiggsSheaf(atlas, rank, fields, transitions or {})


def gallery(name: str, p: int = 3, c: int = 1, exponent3: bool = False) -> Scene:
    """Return a built-in scene; `c` parametrizes g7, `exponent3` gates g6."""
    ctx = PrimeContext(p)
    meta = {"name": name}
    if name == "g1_trivial":
        atlas = _a1_atlas(ctx)
        meta["description"] = "affine line, zero field, rank 3"
        return Scene(ctx, atlas, _zero_higgs(atlas, 3), meta)
    if name == "g2_a1_rank2":
        atlas = _a1_atlas(ctx, extra_lifts=1)
        vars = atlas.chart_vars("A1")
        n12 = PolyMatrix.from_int_rows([[0, 1], [0, 0]], vars, p)
        sheaf = HiggsSheaf(atlas, 2, {"A1": [n12]})
        meta["description"] = "affine line, rank 2, constant nilpotent field, two liftings"
        return Scene(ctx, atlas, sheaf, meta)
    if name == "g3_a1_three_lifts":
        atlas = _a1_atlas(ctx, extra_lifts=2)
        vars = atlas.chart_vars("A1")
        n12 = PolyMatrix.from_int_rows([[0, 1], [0, 0]], vars, p)
        sheaf = HiggsSheaf(atlas, 2, {"A1": [n12]})
        meta["description"] = "affine line with three liftings (cocycle triples)"
        return Scene(ctx, atlas, sheaf, meta)
    if name == "g4_p1_lemma":
        atlas = _p1_atlas(ctx)
        ov = atlas.overlaps[("U0", "U1")]
        one = PolyMatrix.identity(1, ov.alpha_vars, p)
        sheaf = _zero_higgs(atlas, 1, {("U0", "U1"): one})
        meta["description"] = "P1 with distinct liftings on the two charts"
        return Scene(ctx, atlas, sheaf, meta)
    if name == "g5_p1_uniformizing":
        atlas = _p1_atlas(ctx)
        ov = atlas.overlaps[("U0", "U1")]
        s_vars = atlas.chart_vars("U0")
        w_vars = atlas.chart_vars("U1")
        e21_s = PolyMatrix.from_int_rows([[0, 0], [1, 0]], s_vars, p)
        e21_w = PolyMatrix.from_int_rows([[0, 0], [-1, 0]], w_vars, p)
        z = LaurentPoly.zero(ov.alpha_vars, p)
        t_mat = PolyMatrix(
            [
                [LaurentPoly.var(ov.alpha_vars, p, "s"), z],
                [z, LaurentPoly.var(ov.alpha_vars, p, "s", -1)],
            ]
        )
        sheaf = HiggsSheaf(
            atlas, 2, {"U0": [e21_s], "U1": [e21_w]}, {("U0", "U1"): t_mat}
        )
        meta["description"] = "P1, sum of the two tautological line bundles, constant field"
        return Scene(ctx, atlas, sheaf, meta)
    if name == "g6_a2_rank3":
        vars = VarSpec.make(["t1", "t2"])
        atlas = Atlas(ctx)
        atlas.add_chart("A2", vars)
        atlas.add_lift(
            FrobLift(
                "A2",
                {
                    "t1": LaurentPoly.var(vars, ctx.p2, "t1", p),
                    "t2": LaurentPoly.var(vars, ctx.p2, "t2", p),
                },
            )
        )
        if exponent3:
            if p < 5:
                raise ValueError("the exponent-3 variant of g6 needs p >= 5")
            n1 = PolyMatrix.from_int_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]], vars, p)
            meta["description"] = "affine plane, rank 3, nilpotency exponent 3"
        else:
            n1 = PolyMatrix.from_int_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]], vars, p)
            meta["description"] = "affine plane, rank 3, two commuting components"
        n2 = PolyMatrix.from_int_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]], vars, p)
        sheaf = HiggsSheaf(atlas, 3, {"A2": [n1, n2]})
        return Scene(ctx, atlas, sheaf, meta)
    if name == "g7_gm_rank1":
        vars = VarSpec.make(["t"], ["t"])
        atlas = Atlas(ctx)
        atlas.add_chart("Gm", vars)
        atlas.add_lift(FrobLift("Gm", {"t": LaurentPoly.var(vars, ctx.p2, "t", p)}))
        a_mat = PolyMatrix([[LaurentPoly.monomial(vars, p, c, (-1,))]])
        sheaf = FlatSheaf(atlas, 1, {"Gm": [a_mat]})
        meta["description"] = f"torus, rank 1, connection with residue {c % p}"
        return Scene(ctx, atlas, sheaf, meta)
    raise ValueError(f"unknown gallery scene {name!r} (have {', '.join(GALLERY_NAMES)})")
