"""End-to-end acceptance run: one test per criterion, one printed line each.

Everything here is exact symbolic arithmetic; there are no tolerances to
tune.  Stated wall-clock budgets are generous upper bounds.
"""

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from xcartier import acceptance, transforms
from xcartier.report import ReportEntry
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

    criteria = dict(acceptance.CRITERIA)
    criteria["4"] = raising
    monkeypatch.setattr(acceptance, "CRITERIA", tuple(criteria.items()))
    report = acceptance.verify_all()  # never raises
    assert not report.ok()
    raised = {e.check: e.witness for e in report.failures() if e.check.endswith(" raised")}
    assert raised == {
        "c4: criterion 4 raised": ("input is not a valid flat sheaf: connection gluing[U0|U1]",),
    }
    for number in ("1", "2", "3", "5"):
        assert any(e.check.startswith(f"c{number}: ") for e in report.entries)


def test_criteria_4_and_5_fail_only_the_scenes_that_raise(monkeypatch):
    homotopy_exp = transforms._homotopy_exp  # mutant: h_ba in place of h_ab
    monkeypatch.setattr(transforms, "_homotopy_exp",
                        lambda vars, a, b, phi, ctx: homotopy_exp(vars, b, a, phi, ctx))
    report = acceptance.verify_all()
    assert len(report.entries) == 111
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


def test_verify_all_json_is_byte_identical_across_hash_seeds():
    src = Path(__file__).resolve().parent.parent / "src"
    outs = [
        subprocess.run([sys.executable, "-m", "xcartier.cli", "verify-all", "--json"],
                       capture_output=True, check=True, timeout=300, cwd=src,
                       env={**os.environ, "PYTHONHASHSEED": seed}).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] and outs[0] == outs[1]


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
