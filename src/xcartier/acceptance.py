"""The acceptance suite: every guarantee the library makes, run end to end.

All checks are exact (modular/symbolic arithmetic, no tolerances).  Each
criterion function returns a Report; `verify_all` strings them together
over the built-in gallery at the primes each criterion fixes (3 to 13).
"""

from __future__ import annotations

import os
import pickle
import random
import threading
from contextlib import contextmanager
from contextvars import ContextVar

from .atlas import Atlas, FrobLift, verify_deligne_illusie
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
    cartier,
    descend,
    flat_sections,
    inverse_cartier,
    lift_change_gauge,
    p_curvature_sign,
    untwist,
    verify_gauge_witness,
)


def perturbed_atlas(atlas: Atlas, seed: int) -> Atlas:
    """Replace every lifting image F(t) by F(t) + p*r(t) with seeded random r of degree <= 3.

    r(t) = sum_e r_e t^e, e = 0..3, in the image's own coordinate t, with
    r_e drawn in that order.  The noise p*r is one polynomial of the image's
    ring, added to the image, and `validate_lifts` checks every new image:
    its ring, and that it is congruent to t^p mod p.  The result shares the
    source atlas's charts and Overlap objects, so only the replaced liftings
    are validated; the overlaps are the caller's to validate, once per
    source atlas.
    """
    p = atlas.ctx.p
    rng = random.Random(seed)
    out = Atlas(atlas.ctx)
    for name, chart in atlas.charts.items():
        out.add_chart(name, chart.vars)
    for ov in atlas.overlaps.values():
        out.add_overlap(ov)
    for name, lifts in atlas.lifts.items():
        vars = atlas.charts[name].vars
        n = vars.arity
        noise_exps = [[(0,) * k + (e,) + (0,) * (n - k - 1) for e in range(4)] for k in range(n)]
        for lift in lifts:
            images = {}
            for coord, img in lift.images.items():
                noise = {exps: p * rng.randrange(p) for exps in noise_exps[vars.index(coord)]}
                images[coord] = img + LaurentPoly(img.vars, img.modulus, noise)
            out.add_lift(FrobLift(name, images))
    out.validate_lifts()
    return out


# the scenes and forward images of the running `verify_all` call, or of a
# criterion run on its own; None outside both
_SCENES: ContextVar[dict | None] = ContextVar("scenes", default=None)


@contextmanager
def _scene_cache():
    """Open a cache for `_scene` and `_image` unless one is open already.

    `verify_all` opens one for all its criteria, and a criterion that reads
    scenes opens its own when it runs on its own; none outlives its call.
    """
    if _SCENES.get() is not None:
        yield
        return
    token = _SCENES.set({})
    try:
        yield
    finally:
        _SCENES.reset(token)


def _scene(name: str, p: int, **options) -> Scene:
    """`gallery(name, p, **options)`, built once per cache (`_scene_cache`).

    The criteria only read their scenes, so they share one scene and with it
    one atlas memo.
    """
    scenes = _SCENES.get()
    key = _key(name, p, options)
    if key not in scenes:
        scenes[key] = gallery(name, p, **options)
    return scenes[key]


def _key(name: str, p: int, options: dict) -> tuple:
    return (name, p, tuple(sorted(options.items())))


def _image(name: str, p: int, lift_choice: dict[str, int] | None = None,
           **options) -> FlatSheaf:
    """`inverse_cartier` of a gallery scene's sheaf, computed once per cache.

    The key is the scene's key with the lifting index that lift_choice
    resolves to on each chart, so a choice that names the default liftings
    shares the default image.  Criteria 2-5 and 10 only read the images.
    """
    scene = _scene(name, p, **options)
    atlas = scene.atlas
    key = (_key(name, p, options),
           tuple(atlas.lift_index(chart, lift_choice) for chart in atlas.charts))
    scenes = _SCENES.get()
    if key not in scenes:
        scenes[key] = inverse_cartier(scene.sheaf, lift_choice)
    return scenes[key]


def _higgs_gallery(p: int) -> list[tuple[str, str, dict]]:
    """(label, gallery name, options) of the Higgs scenes the criteria run at p."""
    items = [(name, name, {}) for name in (
        "g1_trivial", "g2_a1_rank2", "g3_a1_three_lifts", "g4_p1_lemma",
        "g5_p1_uniformizing", "g6_a2_rank3",
    )]
    if p >= 5:
        items.append(("g6_a2_rank3(exp3)", "g6_a2_rank3", {"exponent3": True}))
    return items


@_scene_cache()
def criterion_1() -> Report:
    """Lifting-homotopy identities on g3 and g4, plus 20 perturbed liftings.

    Each source atlas is validated once; its 20 perturbed copies
    (`perturbed_atlas`, seeds 0-19) are built afresh on every call, share its
    overlaps and validate only their own liftings.  On the P1 scene each copy
    transports its liftings to the overlap again (`lift_on_overlap`, a real
    substitution), so the lemma is checked on the transported images too.
    """
    report = Report()
    for p in (3, 5, 7):
        for name in ("g3_a1_three_lifts", "g4_p1_lemma"):
            scene = _scene(name, p)
            scene.atlas.validate()
            rep = verify_deligne_illusie(scene.atlas)
            report.add(f"c1: lemma identities on {name} (p={p})", rep.ok(),
                       tuple(e.check for e in rep.failures()))
            ok = all(verify_deligne_illusie(perturbed_atlas(scene.atlas, seed)).ok()
                     for seed in range(20))
            report.add(f"c1: lemma identities under 20 perturbed liftings on {name} (p={p})", ok)
    return report


@_scene_cache()
def criterion_2() -> Report:
    """The forward transform produces genuinely flat, well-glued sheaves."""
    report = Report()
    for p in (3, 5):
        items = [(label, _image(name, p, **options)) for label, name, options in _higgs_gallery(p)
                 if label.startswith(("g1", "g2", "g5", "g6"))]
        # the trivial scene at the remaining stated ranks
        g1 = _scene("g1_trivial", p)
        for rank in (1, 2):
            fields = {
                c: [PolyMatrix.zero(rank, rank, g1.atlas.chart_vars(c), p)
                    for _ in g1.atlas.chart_vars(c).names]
                for c in g1.atlas.charts
            }
            items.append((f"g1_trivial(rank {rank})",
                          inverse_cartier(HiggsSheaf(g1.atlas, rank, fields))))
        for name, flat in items:
            rep = check_flat(flat)
            report.add(f"c2: forward output flat and glued on {name} (p={p})",
                       rep.ok(), tuple(e.check for e in rep.failures()))
    return report


@_scene_cache()
def criterion_3() -> Report:
    """One global p-curvature sign across every gallery item, matching -1; zero on a pure gauge."""
    report = Report()
    signs = []
    for p in (3, 5):
        for label, name, options in _higgs_gallery(p):
            check = (f"c3: p-curvature is a single sign times the pulled-back field "
                     f"on {label} (p={p})")
            psi = p_curvature(_image(name, p, **options))
            try:
                s = p_curvature_sign(_scene(name, p, **options).sheaf, psi)
            except TransformError as exc:
                report.add(check, False, (str(exc),))
                continue
            if s is not None:
                signs.append((label, p, s))
            report.add(check, True)
    consistent = len({s for (_, _, s) in signs}) == 1
    measured = signs[0][2] if consistent and signs else None
    report.add(
        "c3: one global sign across the whole gallery",
        consistent,
        tuple(f"{n} (p={p}): {s:+d}" for n, p, s in signs) if not consistent else (),
    )
    # independent two-by-two reading: psi applied to the second basis vector
    psi = p_curvature(_image("g2_a1_rank2", 3))
    mat = psi.comps["A1"][0]
    oracle = None
    vars = _scene("g2_a1_rank2", 3).atlas.chart_vars("A1")
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


@_scene_cache()
def criterion_4() -> Report:
    """Untwisted connections kill p-curvature; descent outputs are nilpotent.

    A scene whose untwist or descent raises fails its remaining entries, with
    the error text as witness; the other scenes still run.
    """
    report = Report()
    jobs = []
    for p in (3, 5):
        jobs.append((f"image of g2_a1_rank2 (p={p})", _image("g2_a1_rank2", p)))
        # two-chart image, so the gluing commutation check is not vacuous
        jobs.append((f"image of g5_p1_uniformizing (p={p})", _image("g5_p1_uniformizing", p)))
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
            jacobians = {pair: flat.atlas.jacobian(pair).frobenius()
                         for pair in flat.atlas.overlaps}
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


@_scene_cache()
def criterion_5() -> Report:
    """Round trip equals the sign-flipped input exactly, on one chart or several.

    The converse transform runs on the scene's shared forward image.  A scene
    whose round trip raises fails its entry, with the error text as witness;
    the other scenes still run.
    """
    report = Report()
    for p in (3, 5):
        for label, name, options in _higgs_gallery(p):
            check = f"c5: round trip exactly sign-flips {label} (p={p})"
            try:
                ok = cartier(_image(name, p, **options)) == _scene(name, p, **options).sheaf.negated()
            except ValueError as exc:
                report.add(check, False, (str(exc),))
                continue
            report.add(check, ok, () if ok else ("round trip equals sign-flipped input exactly",))
    return report


@_scene_cache()
def criterion_6() -> Report:
    """Descent frames on the three model connections, exact values."""
    report = Report()
    for p in (3, 5):
        atlas = _scene("g1_trivial", p).atlas  # the affine line with the lifting t^p
        vars = atlas.chart_vars("A1")
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
    out = Report()
    out.extend(verify_symmetrized_vanishing([3, 5, 7]), prefix="c7: ")
    f1 = symmetrized_f(3, 1)
    want = LaurentPoly.parse("T1^2", VarSpec.make(["T1"]), 3)
    out.add("c7: F_1 at p=3 equals T1^2 (recorded, not zero)", f1 == want, (str(f1),))
    return out


def criterion_8() -> Report:
    """Truncated exponential equals its multi-index Taylor regrouping on 50 families.

    Every call draws its 50 seeded families per prime afresh
    (`commuting_nilpotent_family`) and checks each one with
    `taylor_cocycle_identity`: commutation, joint nilpotency, then
    `trunc_exp` of sum_l z_l N_l against the regrouping.
    """
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


@_scene_cache()
def criterion_10() -> Report:
    """Different liftings give forward transforms glued by the homotopy exponential."""
    report = Report()
    for p in (3, 5):
        scene = _scene("g2_a1_rank2", p)
        first, second = {"A1": 0}, {"A1": 1}
        gauges = lift_change_gauge(scene.sheaf, first, second)
        ok = verify_gauge_witness(_image("g2_a1_rank2", p, first),
                                  _image("g2_a1_rank2", p, second), gauges, flat=True)
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


# the criteria that read no gallery scene; `verify_all` runs them in one
# forked child while the caller runs the others on its one scene cache
SCENELESS = ("7", "8", "9")


def verify_all() -> Report:
    """Every criterion in order; one that raises a ValueError becomes a failed
    entry, and the rest still run.

    Each gallery scene is built once for the whole call (`_scene`), and so is
    each of its forward images (`_image`).  Criteria 7-9 read no scene.  When
    `os.fork` exists, more than one CPU is usable and the caller runs one
    thread, they run in one child process forked at the start of the call
    (`_Child`) while the caller runs the others; otherwise, or if the fork
    fails, they run here in turn.  The caller merges the child's reports in
    `CRITERIA` order, so the report is byte-identical either way, and it
    waits for the child before it returns or raises.  Any other exception in
    the child is raised again here with its type and message; a child that
    ends without an answer raises RuntimeError.
    """
    forked = [(number, fn) for number, fn in CRITERIA if number in SCENELESS]
    child = None
    if forked and hasattr(os, "fork") and _usable_cpus() > 1 and threading.active_count() == 1:
        child = _Child.start(forked)
    reports = {}
    try:
        with _scene_cache():
            for number, fn in CRITERIA:
                if child is None or number not in SCENELESS:
                    reports[number] = _run(number, fn)
        if child is not None:
            reports.update(child.answer())
    finally:
        if child is not None:
            child.close()
    report = Report()
    for number, _ in CRITERIA:
        report.extend(reports[number])
    return report


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run(number: str, fn) -> Report:
    """fn(); a ValueError becomes the failed entry `cN: criterion N raised`."""
    try:
        return fn()
    except ValueError as exc:  # every package error is a ValueError
        report = Report()
        report.add(f"c{number}: criterion {number} raised", False, (str(exc),))
        return report


class _Child:
    """A child process that runs criteria with `_run`, and the pipe it answers on.

    The child pickles `{number: Report}`, or the first exception `_run` lets
    through, to the pipe and leaves by `os._exit`, so it runs no exit handler
    and flushes none of the caller's buffers.  Where CPU affinity can be set,
    the caller keeps the first of its CPUs and the child takes the others
    until `close`: on a 2-vCPU Linux 6.18 VM the scheduler left a new child
    on its parent's CPU for hundreds of milliseconds, and the two ran at
    half speed.
    """

    def __init__(self, criteria: list, pid: int, fd: int, cpus: set | None):
        self.criteria, self.pid, self.fd, self.cpus = criteria, pid, fd, cpus
        self.status = None

    @classmethod
    def start(cls, criteria: list) -> "_Child | None":
        """Fork the child, or None if the fork fails."""
        read_fd, write_fd = os.pipe()
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
        if cpus:
            os.sched_setaffinity(0, {min(cpus)})
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            if cpus:
                os.sched_setaffinity(0, cpus)
            return None
        if pid:
            os.close(write_fd)
            return cls(criteria, pid, read_fd, cpus)
        status = 1
        try:
            os.close(read_fd)
            if cpus:
                os.sched_setaffinity(0, cpus - {min(cpus)})
            try:
                answer = {number: _run(number, fn) for number, fn in criteria}
            except Exception as exc:
                answer = exc
            data = pickle.dumps(answer)  # whole, so a failed pickle writes nothing
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)

    def answer(self) -> dict:
        """The child's `{number: Report}`, after it has ended; its exception is raised here."""
        with os.fdopen(self.fd, "rb", closefd=False) as pipe:
            data = pipe.read()
        self.close()
        if not data:
            numbers = ", ".join(number for number, _ in self.criteria)
            raise RuntimeError(f"criteria {numbers} gave no answer: their forked child ended "
                               f"with exit status {os.waitstatus_to_exitcode(self.status)}")
        answer = pickle.loads(data)
        if isinstance(answer, Exception):
            raise answer
        return answer

    def close(self) -> None:
        """Close the pipe, wait for the child and give the caller its CPUs back; once."""
        if self.status is not None:
            return
        os.close(self.fd)  # a child still writing gets EPIPE and exits
        _, self.status = os.waitpid(self.pid, 0)
        if self.cpus:
            os.sched_setaffinity(0, self.cpus)
