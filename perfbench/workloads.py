"""Benchmark workloads: seeded scenes, job lists and reference checks.

Every job is one verified pipeline on one scene.  The scenes are built by
`xcartier.gallery` or by the seeded generator below and then passed through
`emit_scene` -> `parse_scene`, so the transforms only ever see parsed input.

Each job is checked against a reference that does not come from the code
path under test:

* round trips against `E.negated()`, plus the p-curvature sign of the forward
  output via `p_curvature_sign` (-1 under the package's conventions);
* torus frames against the criterion-6 closed form `t^(p - c)`;
* gauge witnesses re-checked with `verify_gauge_witness`;
* `verify_all().ok()`.

The gauge searches run with `gauge_compare`'s default seed, as the CLI and
`verify_all` do; verify_suite's jobs are therefore the same for every
workload seed, and a pass does the same work on every run.

The library is reached only through attribute lookups on the `xcartier`
modules at call time, so the tracer in `tracing.py` sees every call.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

WORKLOADS = ("plane_descent", "curve_sweep", "verify_suite")

STAGES = ("forward", "pcurv", "converse", "frame", "gauge", "verify_all")

CURVE_PRIMES = (3, 5, 7, 11, 13)

# Outcomes of one job.  "missed" is a gauge search that returned no witness
# although one is known; "wrong" is an answer that fails its reference check.
OK, WRONG, MISSED, RAISED = "ok", "wrong", "missed", "raised"


@dataclass
class Job:
    label: str
    kind: str                 # roundtrip | torus | lift_pair | sign_flip | verify_all
    p: int | None = None
    rank: int | None = None
    nvars: int | None = None
    build: object = None      # () -> Scene, run during set-up
    scene: object = None      # the parsed scene
    extra: dict = field(default_factory=dict)

    def key(self) -> dict:
        return {"scene": self.label, "p": self.p, "rank": self.rank, "nvars": self.nvars}


# ---------- seeded scene generator ----------


def jordan_higgs_scene(xc, p: int, names: list[str], rank: int, rng: random.Random,
                       degree: int, label: str):
    """Single-chart affine scene with theta_i = sum_k c_ik(t) N^k, N a Jordan block.

    The components are polynomials in one nilpotent matrix, so they commute,
    and N^rank = 0 keeps the nilpotency exponent at rank <= p - 1.  Each
    c_ik has seeded coefficients on the monomials of total degree <= degree.
    """
    vars = xc.VarSpec.make(names)
    ctx = xc.PrimeContext(p)
    atlas = xc.Atlas(ctx)
    atlas.add_chart("A", vars)
    atlas.add_lift(xc.FrobLift("A", {n: xc.LaurentPoly.var(vars, ctx.p2, n, p) for n in names}))
    monomials = list(_exponents(len(names), degree))
    powers = []
    for k in range(1, rank):
        rows = [[1 if j == i + k else 0 for j in range(rank)] for i in range(rank)]
        powers.append(xc.PolyMatrix.from_int_rows(rows, vars, p))
    fields = []
    for _ in names:
        acc = xc.PolyMatrix.zero(rank, rank, vars, p)
        for n_k in powers:
            c = xc.LaurentPoly(vars, p, {e: rng.randrange(p) for e in monomials})
            acc = acc + n_k.scale(c)
        fields.append(acc)
    if all(m.is_zero() for m in fields):  # keep the field nonzero so its sign is measured
        fields[0] = powers[0]
    sheaf = xc.HiggsSheaf(atlas, rank, {"A": fields})
    return xc.Scene(ctx, atlas, sheaf, {"name": label})


def _exponents(n: int, degree: int):
    if n == 0:
        yield ()
        return
    for e in range(degree + 1):
        for rest in _exponents(n - 1, degree - e):
            yield (e,) + rest


# ---------- job lists ----------


def _gallery_job(xc, name: str, p: int, kind: str = "roundtrip", label: str | None = None,
                 **kwargs) -> Job:
    return Job(label or name, kind, p, build=lambda: xc.gallery(name, p, **kwargs))


def make_jobs(xc, workload: str, seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs: list[Job] = []
    if workload == "plane_descent":
        for p in (5, 7, 11, 13):
            jobs.append(_gallery_job(xc, "g6_a2_rank3", p))
        for p in (5, 7):
            jobs.append(_gallery_job(xc, "g6_a2_rank3", p, label="g6_a2_rank3(exp3)",
                                     exponent3=True))
        for p in (3, 5):
            sub = rng.randrange(2**32)
            jobs.append(Job("a3_rank2_jordan", "roundtrip", p, build=(
                lambda p=p, sub=sub: jordan_higgs_scene(
                    xc, p, ["t1", "t2", "t3"], 2, random.Random(sub), 1, "a3_rank2_jordan"))))
    elif workload == "curve_sweep":
        for name in ("g1_trivial", "g2_a1_rank2", "g3_a1_three_lifts", "g4_p1_lemma",
                     "g5_p1_uniformizing"):
            for p in CURVE_PRIMES:
                jobs.append(_gallery_job(xc, name, p))
        for p in CURVE_PRIMES:
            for c in range(p):
                job = _gallery_job(xc, "g7_gm_rank1", p, kind="torus",
                                   label=f"g7_gm_rank1(c={c})", c=c)
                job.extra["c"] = c
                jobs.append(job)
        for rank in (2, 3, 4):
            for p in CURVE_PRIMES:
                if rank > p - 1:
                    continue
                sub = rng.randrange(2**32)
                label = f"a1_rank{rank}_jordan"
                jobs.append(Job(label, "roundtrip", p, build=(
                    lambda p=p, rank=rank, sub=sub, label=label: jordan_higgs_scene(
                        xc, p, ["t"], rank, random.Random(sub), 2, label))))
    elif workload == "verify_suite":
        jobs.append(Job("verify_all", "verify_all"))
        for p in (3, 5, 7, 11):
            for a, b in ((0, 1), (0, 2), (1, 2)):
                job = _gallery_job(xc, "g3_a1_three_lifts", p, kind="lift_pair",
                                   label=f"g3_a1_three_lifts(lifts {a},{b})")
                job.extra["lifts"] = (a, b)
                jobs.append(job)
        for name in ("g2_a1_rank2", "g5_p1_uniformizing"):
            for p in (3, 5, 7):
                jobs.append(_gallery_job(xc, name, p, kind="sign_flip",
                                         label=f"{name}(sign flip)"))
    else:
        raise ValueError(f"unknown workload {workload!r} (have {', '.join(WORKLOADS)})")
    return jobs


def set_up(xc, jobs: list[Job]) -> None:
    """Generate, emit and parse every job's scene."""
    for job in jobs:
        if job.build is None:
            continue
        job.scene = xc.parse_scene(xc.emit_scene(job.build()))
        job.rank = job.scene.sheaf.rank
        job.nvars = next(iter(job.scene.atlas.charts.values())).vars.arity


# ---------- running one job ----------


class _Stages:
    def __init__(self):
        self.times: dict[str, float] = {}

    def run(self, stage: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.times[stage] = self.times.get(stage, 0.0) + time.perf_counter() - start


def run_job(xc, job: Job) -> tuple[dict[str, float], str, str]:
    """Run one job; returns (stage seconds, outcome, reason)."""
    st = _Stages()
    try:
        outcome, reason = _RUNNERS[job.kind](xc, job, st)
    except Exception as exc:  # a job that raises is counted, the run goes on
        outcome, reason = RAISED, f"{type(exc).__name__}: {exc}"
    return st.times, outcome, reason


def _expected_sign(E) -> int | None:
    return None if E.is_zero_field() else -1


def _roundtrip(xc, job: Job, st: _Stages):
    E = job.scene.sheaf
    H = st.run("forward", xc.inverse_cartier, E)
    psi = st.run("pcurv", xc.p_curvature, H)
    out = st.run("converse", xc.cartier, H)
    sign = xc.p_curvature_sign(E, psi)
    if sign != _expected_sign(E):
        return WRONG, f"p-curvature sign {sign}"
    if out != E.negated():
        return WRONG, "round trip differs from the sign-flipped input"
    return OK, ""


def _torus(xc, job: Job, st: _Stages):
    H = job.scene.sheaf
    p, c = job.p, job.extra["c"]
    psi = st.run("pcurv", xc.p_curvature, H)
    out = st.run("converse", xc.cartier, H)
    frame = st.run("frame", xc.flat_sections, H).frames["Gm"]
    vars = job.scene.atlas.chart_vars("Gm")
    want = xc.PolyMatrix([[xc.LaurentPoly.var(vars, p, "t", (p - c) % p)]])
    if not psi.is_zero():
        return WRONG, "nonzero p-curvature on a residue connection"
    if not out.is_zero_field():
        return WRONG, "descended field is not zero"
    if frame != want:
        return WRONG, f"frame {frame}, expected {want}"
    return OK, ""


def _lift_pair(xc, job: Job, st: _Stages):
    E = job.scene.sheaf
    a, b = job.extra["lifts"]
    flats = [st.run("forward", xc.inverse_cartier, E, {"A1": k}) for k in (a, b)]
    for H in flats:
        sign = xc.p_curvature_sign(E, st.run("pcurv", xc.p_curvature, H))
        if sign != -1:
            return WRONG, f"p-curvature sign {sign}"
    found = st.run("gauge", xc.gauge_compare, flats[0], flats[1], flat=True)
    # trunc_exp(h_ab(F*theta)) is a witness for every lift pair, so None is a miss
    if found is None:
        return MISSED, "no witness found"
    if not xc.transforms.verify_gauge_witness(flats[0], flats[1], found.gauges, True):
        return WRONG, "returned witness does not verify"
    return OK, ""


def _sign_flip(xc, job: Job, st: _Stages):
    E = job.scene.sheaf
    neg = E.negated()
    diag = [[(1 if i == 0 else -1) if i == j else 0 for j in range(E.rank)]
            for i in range(E.rank)]
    known = {chart: xc.PolyMatrix.from_int_rows(diag, job.scene.atlas.chart_vars(chart), job.p)
             for chart in job.scene.atlas.charts}
    if not xc.transforms.verify_gauge_witness(E, neg, known, False):
        raise AssertionError("diag(1, -1, ...) is not a witness; the reference is wrong")
    found = st.run("gauge", xc.gauge_compare, E, neg)
    if found is None:
        return MISSED, "no witness found although diag(1, -1) is one"
    if not xc.transforms.verify_gauge_witness(E, neg, found.gauges, False):
        return WRONG, "returned witness does not verify"
    return OK, ""


def _verify_all(xc, job: Job, st: _Stages):
    report = st.run("verify_all", xc.acceptance.verify_all)
    if not report.ok():
        return WRONG, "; ".join(e.check for e in report.failures())
    return OK, ""


_RUNNERS = {
    "roundtrip": _roundtrip,
    "torus": _torus,
    "lift_pair": _lift_pair,
    "sign_flip": _sign_flip,
    "verify_all": _verify_all,
}


def reference_loop() -> dict:
    """A fixed pure-Python workload shaped like a sparse polynomial product."""
    a = {(i, j): (7 * i + j) % 13 for i in range(8) for j in range(8)}
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in a.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            out[e] = (out.get(e, 0) + ca * cb) % 13
    return out


def memory_grid():
    """The 8 MB int64 array `memory_loop` scans (512 rows of 16 KB)."""
    import numpy as np

    return np.arange(512 * 2048, dtype=np.int64).reshape(512, 2048) % 7


def memory_loop(grid) -> int:
    """A fixed numpy workload shaped like the pivot search of `rref_mod_p`.

    Each column read strides 16 KB from row to row, so the loop is bound by
    memory latency, as the column scans of a large descent matrix are.
    """
    import numpy as np

    return sum(int(np.nonzero(grid[:, c])[0].size) for c in range(0, 2048, 32))


# Workloads whose pass time follows the memory loop rather than the pure-Python
# one: plane_descent's passes are almost all descent solves on matrices of up
# to 9360 x 4800, while the other workloads' passes are ring arithmetic.
MEMORY_BOUND = ("plane_descent",)


class SpeedProbe:
    """Times the reference loops between jobs, at most once per `INTERVAL_S` seconds.

    A shared virtual machine can change CPU speed every few seconds; the mean
    loop duration over a run measures the speed that run got.  `durations`
    holds the pure-Python loop, `memory_durations` the memory loop, which
    runs only when `memory` is set (its array adds 8 MB to the peak RSS).
    """

    INTERVAL_S = 0.1

    def __init__(self, memory: bool = False):
        self.last = float("-inf")
        self.durations: list[float] = []
        self.memory_durations: list[float] = []
        self.grid = memory_grid() if memory else None

    def maybe(self) -> float:
        """Run the loops if they are due; returns the seconds they took (0 if not run)."""
        start = time.perf_counter()
        if start - self.last < self.INTERVAL_S:
            return 0.0
        reference_loop()
        self.last = time.perf_counter()
        self.durations.append(self.last - start)
        if self.grid is not None:
            mid = self.last
            memory_loop(self.grid)
            self.last = time.perf_counter()
            self.memory_durations.append(self.last - mid)
        return self.last - start


def run_pass(xc, jobs: list[Job], probe: SpeedProbe | None = None
             ) -> tuple[float, list[tuple[dict[str, float], str, str]]]:
    """One pass over the job list; returns (wall seconds without probes, per-job results)."""
    start = time.perf_counter()
    probing = 0.0
    results = []
    for job in jobs:
        if probe is not None:
            probing += probe.maybe()
        results.append(run_job(xc, job))
    return time.perf_counter() - start - probing, results
