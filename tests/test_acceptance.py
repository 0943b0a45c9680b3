"""End-to-end acceptance run: one test per criterion, one printed line each.

Everything here is exact symbolic arithmetic; there are no tolerances to
tune.  Stated wall-clock budgets are generous upper bounds.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from xcartier import acceptance, transforms
from xcartier.report import Report, ReportEntry
from xcartier.ring import PolyMatrix
from xcartier.sheaves import PCurvature

BUDGETS = {
    "1": 10.0,   # lifting-homotopy identities, incl. seeded perturbations
    "2": 30.0,   # forward transform well-formedness
    "3": 30.0,   # global p-curvature sign
    "4": 30.0,   # converse transform well-formedness
    "5": 60.0,   # round trips
    "6": 10.0,   # descent frames
    "7": 60.0,   # symmetrized tuple-sum vanishing
    "8": 30.0,   # Taylor regrouping of the truncated exponential
    "9": 5.0,    # unit checks
    "10": 30.0,  # lifting independence
}

DESCRIPTIONS = {
    "1": "coboundary and cocycle identities for lifting homotopies",
    "2": "forward transform yields flat, correctly glued sheaves",
    "3": "one global p-curvature sign (-1) across the gallery; zero on a pure gauge",
    "4": "converse transform kills p-curvature and descends nilpotently",
    "5": "round trip lands on the sign-flipped input",
    "6": "descent frames on the model connections",
    "7": "symmetrized tuple sums vanish mod p for k > 1",
    "8": "truncated exponential equals its multi-index Taylor form",
    "9": "derivative unit and model p-curvature values",
    "10": "different liftings give gauge-isomorphic outputs",
}


@pytest.mark.parametrize("number,fn", acceptance.CRITERIA, ids=[n for n, _ in acceptance.CRITERIA])
def test_criterion(number, fn):
    start = time.perf_counter()
    report = fn()
    elapsed = time.perf_counter() - start
    status = "PASS" if report.ok() else "FAIL"
    print(f"[{status}] criterion {number}: {DESCRIPTIONS[number]} "
          f"({len(report.entries)} checks, {elapsed:.2f}s)")
    for entry in report.failures():
        print(f"    FAIL {entry.check}: {'; '.join(entry.witness)}")
    assert report.ok(), f"criterion {number} failed"
    assert elapsed < BUDGETS[number], f"criterion {number} exceeded its time budget"


def test_verify_all_aggregate():
    report = acceptance.verify_all()
    assert report.ok()
    assert len(report.entries) >= 100
    # a report records outcomes only: no wall time, so runs are byte-identical
    assert [f.name for f in dataclasses.fields(ReportEntry)] == ["check", "status", "witness"]
    for item in report.to_dict()["entries"]:
        assert set(item) in ({"check", "status"}, {"check", "status", "witness"})


def test_failed_entries_print_their_witness_and_fail_the_report():
    report = Report()
    report.add("held", True)
    report.add("<check>", False, ("a", "b"))
    report.add("bare", False)
    report.skip("skipped", "no data")
    assert report.lines() == [
        "[PASS] held",
        "[FAIL] <check>  witness: a; b",
        "[FAIL] bare",
        "[skip] skipped  (no data)",
        "overall: fail",
    ]


def count_gallery_builds(monkeypatch):
    builds = []
    gallery = acceptance.gallery
    monkeypatch.setattr(acceptance, "gallery",
                        lambda *args, **kwargs: builds.append((args, kwargs)) or gallery(*args, **kwargs))
    return builds


def test_verify_all_builds_each_scene_once_per_call(monkeypatch):
    builds = count_gallery_builds(monkeypatch)
    assert acceptance.verify_all().ok()
    assert len(builds) == 22  # distinct (name, p, options) across the ten criteria
    assert len({repr(b) for b in builds}) == 22
    builds.clear()
    acceptance.verify_all()  # no scene outlives its call
    assert len(builds) == 22
    builds.clear()
    acceptance.criterion_1()  # on its own, a criterion builds its own scenes
    acceptance.criterion_1()
    assert len(builds) == 2 * 6
    assert acceptance._SCENES.get() is None


def test_verify_all_computes_each_forward_image_once_per_call(monkeypatch):
    images = []
    inverse_cartier = acceptance.inverse_cartier
    monkeypatch.setattr(acceptance, "inverse_cartier",
                        lambda *args: images.append(args) or inverse_cartier(*args))
    assert acceptance.verify_all().ok()
    # 13 gallery images at p = 3, 5, the second g2 lifting at both, c2's two g1 ranks at both
    assert len(images) == 19
    images.clear()
    acceptance.verify_all()  # no image outlives its call
    assert len(images) == 19
    images.clear()
    acceptance.criterion_5()  # on its own, a criterion computes its own images
    acceptance.criterion_5()
    assert len(images) == 2 * 13
    images.clear()
    acceptance.criterion_10()
    assert len(images) == 2 * 2


def test_criterion_5_names_the_round_trip_check_as_witness(monkeypatch):
    cartier = acceptance.cartier  # mutant: the round trip returns the input itself
    monkeypatch.setattr(acceptance, "cartier", lambda flat: cartier(flat).negated())
    failed = {e.check: e.witness for e in acceptance.criterion_5().failures()}
    # every scene at p = 3, 5 but g1_trivial and g4_p1_lemma, whose fields are zero
    assert len(failed) == 9
    assert not any(name in check for check in failed for name in ("g1_trivial", "g4_p1_lemma"))
    assert set(failed.values()) == {("round trip equals sign-flipped input exactly",)}


def test_verify_all_keeps_the_report_when_a_criterion_raises(monkeypatch):
    def raising():
        raise transforms.TransformError("input is not a valid flat sheaf: connection gluing[U0|U1]")

    original = acceptance.CRITERIA
    # criterion 8 runs in the forked child where verify_all forks
    for number in ("4", "8"):
        criteria = dict(original)
        criteria[number] = raising
        monkeypatch.setattr(acceptance, "CRITERIA", tuple(criteria.items()))
        report = acceptance.verify_all()  # never raises
        assert not report.ok()
        raised = {e.check: e.witness for e in report.failures() if e.check.endswith(" raised")}
        assert raised == {
            f"c{number}: criterion {number} raised": (
                "input is not a valid flat sheaf: connection gluing[U0|U1]",),
        }
        for other in set(criteria) - {number}:
            assert any(e.check.startswith(f"c{other}: ") for e in report.entries)


# where verify_all forks, criteria 7-9 run in a child that inherits every monkeypatch
FORKS = hasattr(os, "fork") and acceptance._usable_cpus() > 1


def count_forks(monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not FORKS, reason="verify_all forks only with os.fork and two usable CPUs")
def test_verify_all_forks_once_and_agrees_with_the_in_process_loop(monkeypatch):
    forks = count_forks(monkeypatch)
    threads = threading.active_count()
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    forked = acceptance.verify_all().to_dict()
    assert forks == [1]
    assert_no_child_left()
    assert threading.active_count() == threads
    if cpus is not None:
        assert os.sched_getaffinity(0) == cpus  # the caller gets its CPUs back
    # a second thread, then one usable CPU: no fork, the same report
    done = threading.Event()
    waiter = threading.Thread(target=done.wait)
    waiter.start()
    try:
        assert acceptance.verify_all().to_dict() == forked
    finally:
        done.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 1)
    assert acceptance.verify_all().to_dict() == forked
    assert forks == [1]


@pytest.mark.skipif(not FORKS or not os.path.isdir("/proc/self/fd"),
                    reason="verify_all forks only with os.fork and two usable CPUs; "
                           "open descriptors are counted in /proc/self/fd")
def test_verify_all_runs_in_process_when_the_fork_fails(monkeypatch):
    def failing_fork():
        forks.append(1)
        raise OSError("fork refused")

    forks = []
    monkeypatch.setattr(os, "fork", failing_fork)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    fds = len(os.listdir("/proc/self/fd"))
    fallback = acceptance.verify_all().to_dict()
    assert forks == [1]
    assert len(os.listdir("/proc/self/fd")) == fds  # both pipe ends are closed
    if cpus is not None:
        assert os.sched_getaffinity(0) == cpus
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 1)
    assert fallback == acceptance.verify_all().to_dict()
    assert forks == [1]


def test_verify_all_raises_what_criterion_8_raises_in_its_child(monkeypatch):
    def failing():
        raise AssertionError("Taylor regrouping lost a term")

    criteria = dict(acceptance.CRITERIA)
    criteria["8"] = failing
    monkeypatch.setattr(acceptance, "CRITERIA", tuple(criteria.items()))
    with pytest.raises(AssertionError, match="^Taylor regrouping lost a term$"):
        acceptance.verify_all()
    if FORKS:
        assert_no_child_left()


@pytest.mark.skipif(not FORKS, reason="verify_all forks only with os.fork and two usable CPUs")
def test_verify_all_raises_when_its_child_gives_no_answer(monkeypatch):
    caller = os.getpid()
    criteria = dict(acceptance.CRITERIA)
    criteria["8"] = lambda: (os._exit(3) if os.getpid() != caller
                             else pytest.fail("criterion 8 ran in the caller"))
    monkeypatch.setattr(acceptance, "CRITERIA", tuple(criteria.items()))
    with pytest.raises(RuntimeError, match=r"^criteria 7, 8, 9 gave no answer: "
                                           r"their forked child ended with exit status 3$"):
        acceptance.verify_all()
    assert_no_child_left()


def test_criteria_4_and_5_fail_only_the_scenes_that_raise(monkeypatch):
    homotopy_exp = transforms._homotopy_exp  # mutant: h_ba in place of h_ab
    monkeypatch.setattr(transforms, "_homotopy_exp",
                        lambda vars, a, b, phi, ctx: homotopy_exp(vars, b, a, phi, ctx))
    report = acceptance.verify_all()
    assert len(report.entries) == 112
    assert not any(e.check.endswith(" raised") for e in report.entries)
    failed = {e.check: e.witness for e in report.failures() if e.check.startswith(("c4:", "c5:"))}
    g5 = [(f"image of g5_p1_uniformizing (p={p})", f"g5_p1_uniformizing (p={p})") for p in (3, 5)]
    assert sorted(failed) == sorted(
        [f"c4: {what} on {image}" for image, _ in g5 for what in (
            "untwisted connection has zero p-curvature",
            "p-curvature commutes with the twisted gluing",
            "descended sheaf passes all checks",
        )]
        + [f"c5: round trip exactly sign-flips {scene}" for _, scene in g5]
    )
    assert set(failed.values()) == {("input is not a valid flat sheaf: connection gluing[U0|U1]",)}


def patch_everywhere(monkeypatch, name, replacement):
    """Replace a library function under every name the library calls it by."""
    import xcartier
    from xcartier import atlas, identities, ring, sheaves

    original = next(getattr(m, name) for m in (ring, atlas, sheaves, identities) if hasattr(m, name))
    modules = (xcartier, ring, atlas, sheaves, identities, transforms, acceptance)
    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)
    return original


def test_verify_all_fails_a_trunc_exp_without_the_factorials(monkeypatch):
    trunc_exp = patch_everywhere(monkeypatch, "trunc_exp", lambda M, ctx: trunc_exp(
        M, SimpleNamespace(p=ctx.p, inv_factorials=(1,) * ctx.p)))
    report = acceptance.verify_all()  # never raises
    assert len(report.entries) == 112
    assert not any(e.check.endswith(" raised") for e in report.entries)
    # at p = 3 every power above the first is zero, where 1/i! = 1
    assert [e.check for e in report.failures()] == [
        "c8: Taylor regrouping for 50 seeded families (p=5)"]


def test_verify_all_fails_a_wrong_sign_zeta_under_every_perturbed_lifting(monkeypatch):
    zeta_form = patch_everywhere(monkeypatch, "zeta_form", lambda vars, images: -zeta_form(
        vars, images))
    report = acceptance.verify_all()  # never raises
    assert len(report.entries) == 112
    assert not any(e.check.endswith(" raised") for e in report.entries)
    failed = {e.check: e.witness for e in report.failures() if e.check.startswith("c1:")}
    base = [f"c1: lemma identities on {name} (p={p})"
            for p in (3, 5, 7) for name in ("g3_a1_three_lifts", "g4_p1_lemma")]
    perturbed = [check.replace("identities on", "identities under 20 perturbed liftings on")
                 for check in base]
    assert sorted(failed) == sorted(base + perturbed)
    # the base entries name every failed coboundary check and no cocycle check
    assert failed[base[0]] == tuple(f"chart:A1: d(h) = zeta difference [A1#{a},A1#{b}]"
                                    for a in range(3) for b in range(3) if a != b)
    assert failed[base[1]] == ("overlap:U0|U1: d(h) = zeta difference [U0#0,U1#0]",
                               "overlap:U0|U1: d(h) = zeta difference [U1#0,U0#0]")


PURE_GAUGE = ("c3: p-curvature of the pure gauge d - dF*F^-1 is zero, "
              "F = [[1, t, t^2 + t], [0, 1, t^2], [0, 0, 1]] (p=3)")
SIGNS = [f"c3: p-curvature is a single sign times the pulled-back field on {label} (p={p})"
         for p in (3, 5) for label in ("g2_a1_rank2", "g3_a1_three_lifts", "g5_p1_uniformizing",
                                       "g6_a2_rank3") + (("g6_a2_rank3(exp3)",) if p == 5 else ())]
TORUS = [f"c4: {check} on g7_gm_rank1 c={c} (p=3)" for c in (1, 2) for check in (
    "untwisted connection has zero p-curvature",
    "p-curvature commutes with the twisted gluing",
    "descended sheaf passes all checks",
)]


def without_frobenius_term(p_curvature):
    """`PolyMatrix.p_curvature` minus frobenius(A) at rank one, which leaves the
    Wilson term alone there: the closed form without its A^p term."""

    def mutant(a, name):
        psi = p_curvature(a, name)
        return psi - a.frobenius() if a.rows == 1 else psi

    return mutant


# mutants of the p-curvature's closed form: (owner in ring, attribute, mutant of the
# original, criterion, its failures)
CLOSED_FORM_MUTANTS = {
    # the forward images are nilpotent, so A^p = 0 there; the torus is rank one, where A^p is
    # frobenius(A)
    "A_e^p dropped": ("PolyMatrix", "p_curvature", without_frobenius_term, "c4:", TORUS),
    "d^(p-1) A dropped": (None, "_wilson_derivative_terms",
                          lambda original: lambda terms, i, p: {}, "c3:", SIGNS + [
                              "c3: one global sign across the whole gallery",
                              "c3: measured sign equals the rank-2 oracle value -1"]),
    # the unipotent pure gauge has an acyclic support of longest path 2 and non-commuting
    # coefficient matrices; the other pure gauge has a cycle and takes the chain anyway
    "commutation test skipped": (None, "_commute_pairwise", lambda original: lambda mats, p: True,
                                 "c3:", [PURE_GAUGE]),
}


@pytest.mark.parametrize("kind", list(CLOSED_FORM_MUTANTS))
def test_verify_all_fails_a_mutant_of_the_p_curvature_closed_form(monkeypatch, kind):
    from xcartier import ring

    owner, name, mutant, criterion, want = CLOSED_FORM_MUTANTS[kind]
    owner = getattr(ring, owner) if owner else ring
    monkeypatch.setattr(owner, name, mutant(getattr(owner, name)))
    report = acceptance.verify_all()  # never raises
    assert len(report.entries) == 112
    assert not any(e.check.endswith(" raised") for e in report.entries)
    assert [e.check for e in report.failures() if e.check.startswith(criterion)] == want


def test_verify_all_json_is_byte_identical_across_hash_seeds():
    src = Path(__file__).resolve().parent.parent / "src"
    outs = [
        subprocess.run([sys.executable, "-m", "xcartier.cli", "verify-all", "--json"],
                       capture_output=True, check=True, timeout=300, cwd=src,
                       env={**os.environ, "PYTHONHASHSEED": seed}).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] and outs[0] == outs[1]


# md5 of `verify-all` under every PYTHONHASHSEED; a faster criterion must not change a byte
VERIFY_ALL_MD5 = {
    "--json": "b6abfd43f96faa71cdbbe2b9e18ce726",
    "text": "e8fa74369bc633f0781f1bfa4463d489",
}


@pytest.mark.parametrize("form", list(VERIFY_ALL_MD5))
def test_verify_all_reports_are_pinned(capsys, form):
    from xcartier.cli import run_cli

    assert run_cli(["verify-all"] + (["--json"] if form == "--json" else [])) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == VERIFY_ALL_MD5[form]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("form", list(VERIFY_ALL_MD5))
def test_verify_all_reports_are_pinned_on_one_cpu(form):
    # on one usable CPU verify_all runs every criterion in process
    cpu = min(os.sched_getaffinity(0))
    src = Path(__file__).resolve().parent.parent / "src"
    for seed in ("0", "1"):
        out = subprocess.run(
            [sys.executable, "-m", "xcartier.cli", "verify-all"] + ([form] if form == "--json" else []),
            capture_output=True, check=True, timeout=300, cwd=src,
            env={**os.environ, "PYTHONHASHSEED": seed},
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu})).stdout
        assert hashlib.md5(out).hexdigest() == VERIFY_ALL_MD5[form]


# md5 over `icartier` and `roundtrip --json` of every gallery Higgs scene at p = 3, 5, 7
FORWARD_MD5 = "1d184f54bf55667347d3b7891353f6f6"


def test_forward_and_roundtrip_outputs_are_pinned(tmp_path, capsys):
    from xcartier.cli import run_cli
    from xcartier.gallery import GALLERY_NAMES, gallery
    from xcartier.scene import emit_scene
    from xcartier.sheaves import HiggsSheaf

    digest = hashlib.md5()
    for p in (3, 5, 7):
        for name in GALLERY_NAMES:
            scene = gallery(name, p)
            if not isinstance(scene.sheaf, HiggsSheaf):
                continue
            path = tmp_path / f"{name}-{p}.json"
            path.write_text(emit_scene(scene))
            for argv in (["icartier"], ["roundtrip", "--json"]):
                assert run_cli(argv + ["--scene", str(path)]) == 0
                digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == FORWARD_MD5


def pure_gauge_scene():
    """Criterion 3's pure gauge d - dF*F^-1 at p = 3, F^-1 = [[1 + t^3, t^2], [t, 1]]."""
    from xcartier.gallery import gallery
    from xcartier.ring import LaurentPoly
    from xcartier.scene import Scene
    from xcartier.sheaves import FlatSheaf

    s = gallery("g1_trivial", 3)
    vars = s.atlas.chart_vars("A1")
    inv = PolyMatrix([[LaurentPoly.parse(x, vars, 3) for x in row]
                      for row in (("1 + t^3", "t^2"), ("t", "1"))])
    gauge = FlatSheaf(s.atlas, 2, {"A1": [-(inv.inverse_unit_det().deriv("t") @ inv)]})
    return Scene(s.ctx, s.atlas, gauge, {"name": "pure gauge"})


def digest_cli_outputs(tmp_path, capsys, argv, scenes):
    """md5 over the stdout of `argv --scene` on each scene, which must exit 0."""
    from xcartier.cli import run_cli
    from xcartier.scene import emit_scene

    digest = hashlib.md5()
    for k, scene in enumerate(scenes):
        path = tmp_path / f"{k}.json"
        path.write_text(emit_scene(scene))
        assert run_cli(argv + ["--scene", str(path)]) == 0
        digest.update(capsys.readouterr().out.encode())
    return digest.hexdigest()


# md5 over `cartier` of flat scenes whose flat frames are not the identity: the
# torus at every residue and the g2 and g3 forward images under lifting 1
# (descended with lifting 0) at p = 3, 5, 7, and criterion 3's pure gauge at
# p = 3, whose frame takes a Euclid step
CARTIER_MD5 = "c804f93894b3b46c5fa8ccb8fe2cfc60"


def test_descent_outputs_on_non_identity_frames_are_pinned(tmp_path, capsys):
    from xcartier.gallery import gallery
    from xcartier.scene import Scene

    scenes = []
    for p in (3, 5, 7):
        scenes += [gallery("g7_gm_rank1", p, c=c) for c in range(1, p)]
        for name in ("g2_a1_rank2", "g3_a1_three_lifts"):
            s = gallery(name, p)
            scenes.append(Scene(s.ctx, s.atlas, transforms.inverse_cartier(s.sheaf, {"A1": 1}),
                                s.metadata))
    scenes.append(pure_gauge_scene())
    assert digest_cli_outputs(tmp_path, capsys, ["cartier"], scenes) == CARTIER_MD5


# md5 over `pcurv --json` of the forward image of every gallery Higgs scene
# (g6's exponent-3 variant included) under every lifting choice, of the torus
# at every residue, both at p = 3, 5, 7, 11, 13, and of criterion 3's pure
# gauge at p = 3: every branch of the p-curvature's closed form and its chain
PCURV_MD5 = "6005858226ade7b289a4169b6204c73a"


def test_p_curvature_outputs_are_pinned(tmp_path, capsys):
    import itertools

    from xcartier.gallery import GALLERY_NAMES, gallery
    from xcartier.scene import Scene
    from xcartier.sheaves import HiggsSheaf

    scenes = []
    for p in (3, 5, 7, 11, 13):
        for name in GALLERY_NAMES:
            for options in [{}] + ([{"exponent3": True}] if name == "g6_a2_rank3" and p >= 5 else []):
                s = gallery(name, p, **options)
                if not isinstance(s.sheaf, HiggsSheaf):
                    continue
                charts = sorted(s.atlas.charts)
                for idx in itertools.product(*(range(len(s.atlas.lifts[c])) for c in charts)):
                    flat = transforms.inverse_cartier(s.sheaf, dict(zip(charts, idx)))
                    scenes.append(Scene(s.ctx, s.atlas, flat, s.metadata))
        scenes += [gallery("g7_gm_rank1", p, c=c) for c in range(p)]
    scenes.append(pure_gauge_scene())
    assert len(scenes) == 89
    assert digest_cli_outputs(tmp_path, capsys, ["pcurv", "--json"], scenes) == PCURV_MD5


def chain_p_curvature(step, length):
    """A p_curvature built from `step(b, A_i, t_i)` applied `length(p)` times to the identity."""

    def p_curvature(H):
        p = H.atlas.ctx.p
        comps = {}
        for chart, mats in H.conn.items():
            vars = H.atlas.chart_vars(chart)
            psis = []
            for a, name in zip(mats, vars.names):
                b = PolyMatrix.identity(H.rank, vars, p)
                for _ in range(length(p)):
                    b = step(b, a, name)
                psis.append(b)
            comps[chart] = psis
        return PCurvature(H.rank, comps)

    return p_curvature


P_CURVATURES = {
    "correct": chain_p_curvature(lambda b, a, n: b.deriv(n) + a @ b, lambda p: p),
    "A on the right": chain_p_curvature(lambda b, a, n: b.deriv(n) + b @ a, lambda p: p),
    "p-1 steps": chain_p_curvature(lambda b, a, n: b.deriv(n) + a @ b, lambda p: p - 1),
}


@pytest.mark.parametrize("kind", list(P_CURVATURES))
def test_criterion_3_reports_a_wrong_p_curvature_as_failed_entries(monkeypatch, kind):
    monkeypatch.setattr(acceptance, "p_curvature", P_CURVATURES[kind])
    report = acceptance.criterion_3()  # never raises
    failed = {e.check: e.witness for e in report.failures()}
    if kind == "correct":
        assert report.ok()
        return
    assert any("pure gauge" in check for check in failed)
    if kind == "p-1 steps":  # p_curvature_sign's error text is the witness
        assert any("single sign" in check and "neither +/-" in witness[0]
                   for check, witness in failed.items())


def perturbed_atlas_by_polynomials(atlas, seed):
    """F(t) + p*r(t) with the noise built and added as validated polynomials."""
    import random

    from xcartier.atlas import Atlas, FrobLift
    from xcartier.ring import LaurentPoly

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
    out.validate_lifts()
    return out


def test_perturbed_atlas_matches_the_validated_construction():
    from xcartier.gallery import gallery

    count = 0
    for p in (3, 5, 7):
        for name in ("g3_a1_three_lifts", "g4_p1_lemma"):
            source = gallery(name, p).atlas
            for seed in range(20):
                got = acceptance.perturbed_atlas(source, seed)
                want = perturbed_atlas_by_polynomials(source, seed)
                assert got.lifts == want.lifts and got.lifts != source.lifts
                count += 1
    assert count == 120  # criterion 1's perturbed atlases


def test_perturbed_atlas_validates_its_lifts_and_criterion_1_the_overlaps(monkeypatch):
    from xcartier.atlas import Atlas, AtlasError, FrobLift
    from xcartier.gallery import gallery
    from xcartier.ring import LaurentPoly, PrimeContext, VarSpec

    # a corrupt source lifting stays corrupt under p*r(t) noise
    t = VarSpec.make(["t"])
    corrupt = Atlas(PrimeContext(3))
    corrupt.add_chart("A1", t)
    corrupt.add_lift(FrobLift("A1", {"t": LaurentPoly.parse("t^3 + t", t, 9)}))
    with pytest.raises(AtlasError, match="not congruent to t\\^3 mod 3"):
        acceptance.perturbed_atlas(corrupt, 0)
    # the perturbed copies share the source overlaps, which criterion 1 validates once
    source = gallery("g4_p1_lemma", 3).atlas
    copy = acceptance.perturbed_atlas(source, 0)
    assert all(copy.overlaps[pair] is ov for pair, ov in source.overlaps.items())
    checked = []
    validate_overlap = Atlas._validate_overlap
    monkeypatch.setattr(Atlas, "_validate_overlap",
                        lambda self, ov: checked.append(ov.pair) or validate_overlap(self, ov))
    assert acceptance.criterion_1().ok()
    assert checked == [("U0", "U1")] * 3  # g4 at p = 3, 5, 7

    def broken(self, ov):
        raise AtlasError(f"overlap {ov.pair}: coordinate 's' does not round-trip")

    monkeypatch.setattr(Atlas, "_validate_overlap", broken)
    report = acceptance.verify_all()
    failed = {e.check: e.witness for e in report.failures()}
    assert failed == {"c1: criterion 1 raised": (
        "overlap ('U0', 'U1'): coordinate 's' does not round-trip",)}
