"""The benchmark's tracer (perfbench/tracing.py) wraps library names by lookup.

A rename in the library would otherwise only show up when the benchmark is
run with `--trace 1`.  The tracer is compiled from its source here, so the
benchmark directory is only read.
"""

import importlib
import types
from pathlib import Path

import xcartier
import xcartier.acceptance
from xcartier.gallery import gallery
from xcartier.ring import LaurentPoly, PolyMatrix

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_traced_functions_exist():
    tracing = load_tracing()
    missing = [
        f"{mod}.{attr}" for mod, attr in tracing.FUNCTION_SPANS
        if not callable(getattr(importlib.import_module(f"xcartier.{mod}"), attr, None))
    ]
    assert not missing


def test_traced_methods_exist():
    tracing = load_tracing()
    classes = {"LaurentPoly": LaurentPoly, "PolyMatrix": PolyMatrix}
    missing = [
        f"{cls}.{method}" for cls, method, _ in tracing.METHOD_SPANS + tracing.METHOD_COUNTS
        if method not in classes[cls].__dict__
    ]
    assert not missing


def test_tracer_records_a_descent_and_restores_the_library():
    tracing = load_tracing()
    original = (xcartier.transforms.cartier, LaurentPoly.__init__, xcartier.acceptance.CRITERIA)
    tracer = tracing.Tracer()
    tracer.install(xcartier)
    try:
        H = xcartier.transforms.inverse_cartier(gallery("g2_a1_rank2", 3).sheaf)
        xcartier.transforms.cartier(H)
    finally:
        tracer.uninstall()
    assert (xcartier.transforms.cartier, LaurentPoly.__init__,
            xcartier.acceptance.CRITERIA) == original
    table = tracer.span_table()
    assert table["transforms.cartier"]["calls"] == 1
    assert table["transforms._solve_flat_frame"]["calls"] == 1
    assert "linalg.nullspace_mod_p" not in table and tracer.solves == []
