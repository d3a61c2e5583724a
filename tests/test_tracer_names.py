"""Every function the benchmark's tracer wraps must exist under its traced
name, so a refactor that moves or renames one fails here rather than only in
traced benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for layer, path in tracer.TRACED:
        assert layer in tracer.LAYERS, layer
        owner = importlib.import_module(f"quivermoment.{layer}")
        for part in path.split("."):
            assert hasattr(owner, part), f"quivermoment.{layer}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"quivermoment.{layer}.{path}"
