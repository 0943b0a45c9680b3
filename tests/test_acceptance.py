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


def test_verify_all_keeps_the_report_when_a_criterion_raises(monkeypatch):
    homotopy_exp = transforms._homotopy_exp  # mutant: h_ba in place of h_ab
    monkeypatch.setattr(transforms, "_homotopy_exp",
                        lambda vars, a, b, phi, ctx: homotopy_exp(vars, b, a, phi, ctx))
    report = acceptance.verify_all()  # never raises
    assert not report.ok()
    raised = {e.check: e.witness for e in report.failures() if e.check.endswith(" raised")}
    assert raised["c4: criterion 4 raised"] == (
        "input is not a valid flat sheaf: connection gluing[U0|U1]",
    )
    for number in ("1", "2", "3"):
        assert any(e.check.startswith(f"c{number}: ") for e in report.entries)


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
