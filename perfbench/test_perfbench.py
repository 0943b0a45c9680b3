"""Checks on the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench -q

The traced counters must repeat exactly between two traced runs with one
seed, the g6 descent solve at p=5 must keep the shape pinned below, and the
metric names must match BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

EXACT_UNITS = ("count", "bytes", "ratio")


def _traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600, cwd=ROOT,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first, second = _traced_run(workload, 7), _traced_run(workload, 7)
    exact = sorted(n for n, m in first["metrics"].items() if m["unit"] in EXACT_UNITS)
    assert exact
    assert [first["metrics"][n] for n in exact] == [second["metrics"][n] for n in exact]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_g6_p5_descent_solve_shape():
    xc = bench.import_xcartier()
    original = xc.cartier
    job = next(j for j in wl.make_jobs(xc, "plane_descent", 0)
               if j.label == "g6_a2_rank3" and j.p == 5)
    wl.set_up(xc, [job])
    tracer = tracing.Tracer()
    tracer.install(xc)
    try:
        _, outcome, reason = wl.run_job(xc, job)
    finally:
        tracer.uninstall()
    assert outcome == wl.OK, reason
    assert xc.cartier is original
    assert tracer.solves == [{"rows": 1440, "cols": 768, "nonzeros": 1152, "nullity": 48,
                              "bytes_computed": 1440 * 768 * 8}]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (unit, _) in bench.END_TO_END.items()]
    layer = tracing.layer_metrics(tracing.Tracer())
    layer["trace.overhead_s"] = (0.0, "s")
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in layer.items()]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curve_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert out.stdout == ""
