"""The acceptance suite: every guarantee the library makes, run end to end.

All checks are exact (modular/symbolic arithmetic, no tolerances).  Each
criterion function returns a Report; `verify_all` strings them together
over the built-in gallery at the primes each criterion fixes (3 to 13).
"""

from __future__ import annotations

import random
from contextvars import ContextVar

from .atlas import Atlas, FrobLift, jacobian_beta_in_alpha, verify_deligne_illusie
from .gallery import gallery
from .identities import (
    commuting_nilpotent_family,
    symmetrized_f,
    taylor_cocycle_identity,
    verify_symmetrized_vanishing,
    wilson_unit_check,
)
from .report import Report
from .ring import LaurentPoly, PolyMatrix, PrimeContext, VarSpec
from .scene import Scene
from .sheaves import (
    FlatSheaf,
    HiggsSheaf,
    check_field_gluing,
    check_flat,
    p_curvature,
)
from .transforms import (
    TransformError,
    descend,
    flat_sections,
    inverse_cartier,
    lift_change_gauge,
    p_curvature_sign,
    roundtrip_check,
    untwist,
    verify_gauge_witness,
)


def perturbed_atlas(atlas: Atlas, seed: int) -> Atlas:
    """Replace every lifting image F(t) by F(t) + p*r(t) with seeded random r of degree <= 3."""
    ctx = atlas.ctx
    rng = random.Random(seed)
    out = Atlas(ctx)
    for name, chart in atlas.charts.items():
        out.add_chart(name, chart.vars)
    for ov in atlas.overlaps.values():
        out.add_overlap(ov)
    for name, lifts in atlas.lifts.items():
        vars = atlas.charts[name].vars
        for lift in lifts:
            images = {}
            for coord, img in lift.images.items():
                k = vars.index(coord)
                noise = LaurentPoly(vars, ctx.p2, {
                    tuple(e if i == k else 0 for i in range(vars.arity)):
                        ctx.p * rng.randrange(ctx.p)
                    for e in range(4)
                })
                images[coord] = img + noise
            out.add_lift(FrobLift(name, images))
    out.validate()
    return out


# the scenes built by the running `verify_all` call; None outside one
_SCENES: ContextVar[dict | None] = ContextVar("scenes", default=None)


def _scene(name: str, p: int, **options) -> Scene:
    """`gallery(name, p, **options)`, built once per `verify_all` call.

    The criteria only read their scenes, so they share one scene and with it
    one atlas memo.  A criterion run on its own builds its scenes afresh.
    """
    scenes = _SCENES.get()
    if scenes is None:
        return gallery(name, p, **options)
    key = (name, p, tuple(sorted(options.items())))
    if key not in scenes:
        scenes[key] = gallery(name, p, **options)
    return scenes[key]


def _higgs_gallery(p: int):
    items = [
        ("g1_trivial", _scene("g1_trivial", p)),
        ("g2_a1_rank2", _scene("g2_a1_rank2", p)),
        ("g3_a1_three_lifts", _scene("g3_a1_three_lifts", p)),
        ("g4_p1_lemma", _scene("g4_p1_lemma", p)),
        ("g5_p1_uniformizing", _scene("g5_p1_uniformizing", p)),
        ("g6_a2_rank3", _scene("g6_a2_rank3", p)),
    ]
    if p >= 5:
        items.append(("g6_a2_rank3(exp3)", _scene("g6_a2_rank3", p, exponent3=True)))
    return items


def criterion_1() -> Report:
    """Lifting-homotopy identities on g3 and g4, plus 20 perturbed liftings."""
    report = Report()
    for p in (3, 5, 7):
        for name in ("g3_a1_three_lifts", "g4_p1_lemma"):
            scene = _scene(name, p)
            rep = verify_deligne_illusie(scene.atlas)
            report.add(f"c1: lemma identities on {name} (p={p})", rep.ok(),
                       tuple(e.check for e in rep.failures()))
            ok = all(verify_deligne_illusie(perturbed_atlas(scene.atlas, seed)).ok()
                     for seed in range(20))
            report.add(f"c1: lemma identities under 20 perturbed liftings on {name} (p={p})", ok)
    return report


def criterion_2() -> Report:
    """The forward transform produces genuinely flat, well-glued sheaves."""
    report = Report()
    for p in (3, 5):
        items = [(n, s.sheaf) for n, s in _higgs_gallery(p)
                 if n.startswith(("g1", "g2", "g5", "g6"))]
        # the trivial scene at the remaining stated ranks
        g1 = _scene("g1_trivial", p)
        for rank in (1, 2):
            fields = {
                c: [PolyMatrix.zero(rank, rank, g1.atlas.chart_vars(c), p)
                    for _ in g1.atlas.chart_vars(c).names]
                for c in g1.atlas.charts
            }
            items.append((f"g1_trivial(rank {rank})", HiggsSheaf(g1.atlas, rank, fields)))
        for name, higgs in items:
            flat = inverse_cartier(higgs)
            rep = check_flat(flat)
            report.add(f"c2: forward output flat and glued on {name} (p={p})",
                       rep.ok(), tuple(e.check for e in rep.failures()))
    return report


def criterion_3() -> Report:
    """One global p-curvature sign across every gallery item, matching -1; zero on a pure gauge."""
    report = Report()
    signs = []
    for p in (3, 5):
        for name, scene in _higgs_gallery(p):
            check = (f"c3: p-curvature is a single sign times the pulled-back field "
                     f"on {name} (p={p})")
            psi = p_curvature(inverse_cartier(scene.sheaf))
            try:
                s = p_curvature_sign(scene.sheaf, psi)
            except TransformError as exc:
                report.add(check, False, (str(exc),))
                continue
            if s is not None:
                signs.append((name, p, s))
            report.add(check, True)
    consistent = len({s for (_, _, s) in signs}) == 1
    measured = signs[0][2] if consistent and signs else None
    report.add(
        "c3: one global sign across the whole gallery",
        consistent,
        tuple(f"{n} (p={p}): {s:+d}" for n, p, s in signs) if not consistent else (),
    )
    # independent two-by-two reading: psi applied to the second basis vector
    scene = _scene("g2_a1_rank2", 3)
    psi = p_curvature(inverse_cartier(scene.sheaf))
    mat = psi.comps["A1"][0]
    oracle = None
    vars = scene.atlas.chart_vars("A1")
    if mat == PolyMatrix.from_int_rows([[0, -1], [0, 0]], vars, 3):
        oracle = -1
    elif mat == PolyMatrix.from_int_rows([[0, 1], [0, 0]], vars, 3):
        oracle = 1
    report.add(
        "c3: measured sign equals the rank-2 oracle value -1",
        oracle == -1 and measured == -1,
        (f"oracle {oracle}, measured {measured}",) if (oracle != -1 or measured != -1) else (),
    )
    # A = -dF F^-1 does not commute with its derivative, so psi = 0 needs A
    # on the left of every step and all p of them
    atlas = _scene("g1_trivial", 3).atlas
    vars = atlas.chart_vars("A1")
    inv = PolyMatrix([[LaurentPoly.parse(x, vars, 3) for x in row]
                      for row in (("1 + t^3", "t^2"), ("t", "1"))])
    gauge = FlatSheaf(atlas, 2, {"A1": [-(inv.inverse_unit_det().deriv("t") @ inv)]})
    psi = p_curvature(gauge).comps["A1"][0]
    report.add(
        "c3: p-curvature of the pure gauge d - dF*F^-1 is zero, "
        "F^-1 = [[1 + t^3, t^2], [t, 1]] (p=3)",
        psi.is_zero(),
        () if psi.is_zero() else (f"psi = {psi}",),
    )
    return report


def criterion_4() -> Report:
    """Untwisted connections kill p-curvature; descent outputs are nilpotent.

    A scene whose untwist or descent raises fails its remaining entries, with
    the error text as witness; the other scenes still run.
    """
    report = Report()
    jobs = []
    for p in (3, 5):
        scene = _scene("g2_a1_rank2", p)
        jobs.append((f"image of g2_a1_rank2 (p={p})", inverse_cartier(scene.sheaf)))
        # two-chart image, so the gluing commutation check is not vacuous
        jobs.append(
            (f"image of g5_p1_uniformizing (p={p})",
             inverse_cartier(_scene("g5_p1_uniformizing", p).sheaf))
        )
    for c in (0, 1, 2):
        jobs.append((f"g7_gm_rank1 c={c} (p=3)", _scene("g7_gm_rank1", 3, c=c).sheaf))
    for name, flat in jobs:
        checks = iter((
            f"c4: untwisted connection has zero p-curvature on {name}",
            f"c4: p-curvature commutes with the twisted gluing on {name}",
            f"c4: descended sheaf passes all checks on {name}",
        ))
        try:
            untwisted, psi = untwist(flat)
            zero_psi = p_curvature(untwisted).is_zero()
            report.add(next(checks), zero_psi)
            jacobians = {
                pair: jacobian_beta_in_alpha(ov).frobenius()
                for pair, ov in flat.atlas.overlaps.items()
            }
            glue = check_field_gluing(
                flat.atlas, psi.comps, untwisted.transitions, jacobians, flat=False
            )
            report.add(next(checks), glue.ok())
            descend(untwisted, psi)  # raises unless check_higgs, with its exponent bound, passes
            report.add(next(checks), True)
        except ValueError as exc:  # every package error is a ValueError
            for check in checks:
                report.add(check, False, (str(exc),))
    return report


def criterion_5() -> Report:
    """Round trip equals the sign-flipped input exactly, on one chart or several.

    A scene whose round trip raises fails its entry, with the error text as
    witness; the other scenes still run.
    """
    report = Report()
    for p in (3, 5):
        for name, scene in _higgs_gallery(p):
            check = f"c5: round trip exactly sign-flips {name} (p={p})"
            try:
                rep, _ = roundtrip_check(scene.sheaf)
            except ValueError as exc:
                report.add(check, False, (str(exc),))
                continue
            report.add(check, rep.ok(), tuple(e.check for e in rep.failures()))
    return report


def criterion_6() -> Report:
    """Descent frames on the three model connections, exact values."""
    report = Report()
    for p in (3, 5):
        ctx = PrimeContext(p)
        vars = VarSpec.make(["t"])
        atlas = Atlas(ctx)
        atlas.add_chart("A1", vars)
        atlas.add_lift(FrobLift("A1", {"t": LaurentPoly.var(vars, ctx.p2, "t", p)}))
        for rank in (1, 2, 3):
            triv = FlatSheaf(
                atlas, rank,
                {"A1": [PolyMatrix.zero(rank, rank, vars, p)]},
            )
            res = flat_sections(triv)
            report.add(f"c6: trivial connection frame is the identity "
                       f"(rank {rank}, p={p})", res.frames["A1"].is_identity())
        n12 = PolyMatrix.from_int_rows([[0, 1], [0, 0]], vars, p)
        const_conn = FlatSheaf(atlas, 2, {"A1": [n12]})
        res = flat_sections(const_conn)
        t_poly = LaurentPoly.var(vars, p, "t")
        expected = PolyMatrix(
            [
                [LaurentPoly.one(vars, p), -t_poly],
                [LaurentPoly.zero(vars, p), LaurentPoly.one(vars, p)],
            ]
        )
        report.add(
            f"c6: constant-nilpotent frame is I - t*N (p={p})",
            res.frames["A1"] == expected,
            (str(res.frames["A1"]),) if res.frames["A1"] != expected else (),
        )
        for c in range(1, p):
            tor = _scene("g7_gm_rank1", p, c=c)
            res = flat_sections(tor.sheaf)
            frame = res.frames["Gm"]
            want = PolyMatrix([[LaurentPoly.var(tor.atlas.chart_vars("Gm"), p, "t", p - c)]])
            report.add(
                f"c6: torus frame is t^{p - c} for residue {c} (p={p})",
                frame == want,
                (str(frame),) if frame != want else (),
            )
    return report


def criterion_7() -> Report:
    """Full symbolic vanishing of the symmetrized tuple sums."""
    report = verify_symmetrized_vanishing([3, 5, 7])
    out = Report()
    for e in report.entries:
        e.check = "c7: " + e.check
        out.entries.append(e)
    f1 = symmetrized_f(3, 1)
    want = LaurentPoly.parse("T1^2", VarSpec.make(["T1"]), 3)
    out.add("c7: F_1 at p=3 equals T1^2 (recorded, not zero)", f1 == want, (str(f1),))
    return out


def criterion_8() -> Report:
    """Truncated exponential equals its multi-index Taylor regrouping on 50 families."""
    report = Report()
    for p in (3, 5):
        ctx = PrimeContext(p)
        ok = True
        witness = ()
        for seed in range(50):
            rng = random.Random(seed * 1009 + p)
            count = rng.randint(1, 3)
            mats, funcs = commuting_nilpotent_family(ctx, seed=seed * 31 + p, count=count)
            if not taylor_cocycle_identity(ctx, mats, funcs):
                ok = False
                witness = (f"seed {seed}",)
                break
        report.add(f"c8: Taylor regrouping for 50 seeded families (p={p})", ok, witness)
    return report


def criterion_9() -> Report:
    """Derivative unit and model p-curvature for every odd prime <= 13."""
    report = Report()
    for p in (3, 5, 7, 11, 13):
        rep = wilson_unit_check(p)
        report.add(f"c9: unit checks at p={p}", rep.ok(),
                   tuple(e.check for e in rep.failures()))
    return report


def criterion_10() -> Report:
    """Different liftings give forward transforms glued by the homotopy exponential."""
    report = Report()
    for p in (3, 5):
        scene = _scene("g2_a1_rank2", p)
        first, second = {"A1": 0}, {"A1": 1}
        gauges = lift_change_gauge(scene.sheaf, first, second)
        ok = verify_gauge_witness(inverse_cartier(scene.sheaf, first),
                                  inverse_cartier(scene.sheaf, second), gauges, flat=True)
        report.add(
            f"c10: forward transforms under the two liftings are gauge-isomorphic (p={p})",
            ok,
            () if ok else ("the homotopy exponential is not an intertwiner",),
        )
    return report


CRITERIA = (
    ("1", criterion_1),
    ("2", criterion_2),
    ("3", criterion_3),
    ("4", criterion_4),
    ("5", criterion_5),
    ("6", criterion_6),
    ("7", criterion_7),
    ("8", criterion_8),
    ("9", criterion_9),
    ("10", criterion_10),
)


def verify_all() -> Report:
    """Every criterion in order; one that raises becomes a failed entry, and the rest still run.

    Each gallery scene is built once for the whole call (`_scene`).
    """
    report = Report()
    token = _SCENES.set({})
    try:
        for number, fn in CRITERIA:
            try:
                report.extend(fn())
            except ValueError as exc:  # every package error is a ValueError
                report.add(f"c{number}: criterion {number} raised", False, (str(exc),))
    finally:
        _SCENES.reset(token)
    return report
