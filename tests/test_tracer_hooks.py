"""The benchmark tracer wraps names that the program looks up at call time
(`benchmarks/traced.py`).  A refactor that renames one of them would leave
the traced run without its per-layer metrics, so every target must resolve.
"""

import importlib.util
import sys
from pathlib import Path

import numpy.fft  # noqa: F401  (a counter target)
import stripwave.cli  # noqa: F401  (imports every module the tracer patches)

TRACED = Path(__file__).resolve().parents[1] / "benchmarks" / "traced.py"


def _load_traced(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_stripwave_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hook_names_resolve(monkeypatch):
    traced = _load_traced(monkeypatch)
    tracer = traced.Tracer()
    targets = [*traced.SPANS.values(), *traced.COUNTERS.values(), traced.KPP_SOLVER]
    for target in targets:
        tracer.patch(target, lambda fn: fn)  # resolve only: rebinds the same object
    assert tracer.missing == []
    assert len(targets) == len(traced.SPANS) + len(traced.COUNTERS) + 1 > 10
