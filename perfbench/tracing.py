"""Span and counter recorder wrapped around the xcartier layers from outside.

`Tracer.install` replaces module-level functions and `LaurentPoly` /
`PolyMatrix` methods by recording wrappers.  A function is rebound under
every name in every `xcartier.*` module that holds it (for example
`transforms.trunc_exp` and `transforms.nullspace_mod_p`), so calls made
inside the library are seen too.  Spans are (name, start, end, parent) and
stay in memory until `dump` writes them out; a span's self time is its duration
minus the durations of its direct children.  Counts are exact and repeat
from run to run; times do not.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute) of every module-level function that gets a span.
FUNCTION_SPANS = (
    ("ring", "trunc_exp"),
    ("linalg", "nullspace_mod_p"),
    ("atlas", "lift_on_overlap"),
    ("atlas", "h_pair"),
    ("atlas", "zeta_form"),
    ("atlas", "verify_deligne_illusie"),
    ("sheaves", "p_curvature"),
    ("sheaves", "check_flat"),
    ("sheaves", "check_higgs"),
    ("sheaves", "nilpotency_exponent"),
    ("sheaves", "verify_p_curvature_invariants"),
    ("transforms", "inverse_cartier"),
    ("transforms", "untwist"),
    ("transforms", "cartier"),
    ("transforms", "flat_sections"),
    ("transforms", "_solve_flat_frame"),
    ("transforms", "gauge_compare"),
    ("transforms", "_combine"),
    ("transforms", "verify_gauge_witness"),
    ("identities", "verify_symmetrized_vanishing"),
    ("identities", "taylor_cocycle_identity"),
    ("identities", "wilson_unit_check"),
    ("acceptance", "verify_all"),
    ("scene", "parse_scene"),
    ("scene", "emit_scene"),
    ("gallery", "gallery"),
) + tuple(("acceptance", f"criterion_{n}") for n in range(1, 11))

# (class, method, span name) of every ring method that gets a span.
METHOD_SPANS = (
    ("LaurentPoly", "__mul__", "ring.LaurentPoly.mul"),
    ("LaurentPoly", "subst", "ring.LaurentPoly.subst"),
    ("PolyMatrix", "__matmul__", "ring.PolyMatrix.matmul"),
    ("PolyMatrix", "det", "ring.PolyMatrix.det"),
    ("PolyMatrix", "inverse_unit_det", "ring.PolyMatrix.inverse_unit_det"),
)

# Methods that are only counted: they run too often for a span each.
METHOD_COUNTS = (
    ("LaurentPoly", "__init__", "ring.LaurentPoly.new.calls"),
    ("LaurentPoly", "frobenius", "ring.frobenius.calls"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []           # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.solves: list[dict] = []    # one entry per nullspace_mod_p call
        self._stack = [-1]
        self._undo: list = []
        self._frame_keys: set = set()

    # ---------- wrappers ----------

    def _span(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(args, result, idx, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ---------- counter hooks, run after the call returns ----------

    def _on_nullspace(self, args, result, idx, parent):
        a = np.asarray(args[0])  # callers pass entries already reduced mod p
        self.solves.append({
            "rows": int(a.shape[0]),
            "cols": int(a.shape[1]) if a.ndim == 2 else 0,
            "nonzeros": int(np.count_nonzero(a)),
            "nullity": len(result),
            "bytes_computed": int(a.size) * 8,  # dense int64 working copy
        })

    def _on_frame_solve(self, args, result, idx, parent):
        key = (parent, args[1])  # a second solve of one chart in one descent
        if key in self._frame_keys:
            self.counts["transforms.frame_escalations"] += 1
        self._frame_keys.add(key)
        if result is not None:
            self.counts["transforms.frames_found"] += 1

    def _on_gauge(self, args, result, idx, parent):
        if result is not None:
            self.counts["transforms.gauge_compare.found"] += 1

    # ---------- install / remove ----------

    def install(self, package) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        hooks = {
            "linalg.nullspace_mod_p": self._on_nullspace,
            "transforms._solve_flat_frame": self._on_frame_solve,
            "transforms.gauge_compare": self._on_gauge,
        }
        for mod_name, attr in FUNCTION_SPANS:
            module = sys.modules[f"{package.__name__}.{mod_name}"]
            orig = getattr(module, attr)
            name = f"{mod_name}.{attr}"
            self._rebind(modules, orig, self._span(name, orig, hooks.get(name)))
        ring = sys.modules[f"{package.__name__}.ring"]
        for cls_name, method, name in METHOD_SPANS:
            self._patch(getattr(ring, cls_name), method, lambda f: self._span(name, f))
        for cls_name, method, name in METHOD_COUNTS:
            self._patch(getattr(ring, cls_name), method, lambda f: self._count(name, f))
        # verify_all walks CRITERIA, a tuple holding the criterion functions
        acceptance = sys.modules[f"{package.__name__}.acceptance"]
        old = acceptance.CRITERIA
        acceptance.CRITERIA = tuple((n, getattr(acceptance, f"criterion_{n}")) for n, _ in old)
        self._undo.append((acceptance, "CRITERIA", old))

    def _rebind(self, modules, orig, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, orig))

    def _patch(self, cls, method: str, make) -> None:
        orig = cls.__dict__[method]
        setattr(cls, method, make(orig))
        self._undo.append((cls, method, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ---------- results ----------

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return table

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of `child_name` spans whose direct parent is a `parent_name` span."""
        return sum(
            1 for name, _, _, parent in self.spans
            if name == child_name and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "span_names": names,
                "spans_fields": ["name", "start_s", "end_s", "parent"],
                "spans": [[index[n], round(s - t0, 9), round(e - t0, 9), p]
                          for n, s, e, p in self.spans],
                "counts": dict(sorted(self.counts.items())),
                "solves": self.solves,
            }, fh, separators=(",", ":"))


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit), from one traced pass."""
    table = tr.span_table()
    counts = tr.counts

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}

    def both(name):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")

    ns = "linalg.nullspace_mod_p"
    both(ns)
    m[f"{ns}.cells"] = (sum(s["rows"] * s["cols"] for s in tr.solves), "count")
    for key in ("nonzeros", "nullity"):
        m[f"{ns}.{key}"] = (sum(s[key] for s in tr.solves), "count")
    m[f"{ns}.bytes_computed"] = (sum(s["bytes_computed"] for s in tr.solves), "bytes")

    for fn in ("flat_sections", "untwist", "cartier", "inverse_cartier"):
        m[f"transforms.{fn}.self_s"] = (self_s(f"transforms.{fn}"), "s")
    candidates = tr.children_of("transforms._solve_flat_frame", "ring.PolyMatrix.det")
    m["transforms.frame_solves"] = (calls("transforms._solve_flat_frame"), "count")
    m["transforms.frame_escalations"] = (counts["transforms.frame_escalations"], "count")
    m["transforms.frame_candidates"] = (candidates, "count")
    m["transforms.frame_useful_ratio"] = (
        ratio(counts["transforms.frames_found"], candidates), "ratio")

    for fn in ("p_curvature", "check_flat", "check_higgs", "nilpotency_exponent",
               "verify_p_curvature_invariants"):
        both(f"sheaves.{fn}")

    m["ring.LaurentPoly.new.calls"] = (counts["ring.LaurentPoly.new.calls"], "count")
    m["ring.LaurentPoly.mul.calls"] = (calls("ring.LaurentPoly.mul"), "count")
    for fn in ("matmul", "det", "inverse_unit_det"):
        both(f"ring.PolyMatrix.{fn}")
    both("ring.trunc_exp")
    m["ring.frobenius.calls"] = (counts["ring.frobenius.calls"], "count")
    m["ring.self_s"] = (sum(r["self_s"] for n, r in table.items() if n.startswith("ring.")), "s")

    for fn in ("lift_on_overlap", "h_pair", "zeta_form", "verify_deligne_illusie"):
        both(f"atlas.{fn}")

    gc = "transforms.gauge_compare"
    both(gc)
    m[f"{gc}.candidates"] = (tr.children_of(gc, "transforms._combine"), "count")
    m[f"{gc}.found_ratio"] = (ratio(counts[f"{gc}.found"], calls(gc)), "ratio")

    for fn in ("verify_symmetrized_vanishing", "taylor_cocycle_identity", "wilson_unit_check"):
        m[f"identities.{fn}.self_s"] = (self_s(f"identities.{fn}"), "s")
    for n in range(1, 11):
        name = f"acceptance.criterion_{n}"
        m[f"{name}.s"] = (table.get(name, {}).get("total_s", 0.0), "s")

    for name in ("scene.parse_scene", "scene.emit_scene", "gallery.gallery"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    return m
