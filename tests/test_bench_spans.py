"""The benchmark's traced spans name functions the package still has."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_span_resolves_to_a_package_function():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SPANS
    for module, function in tracer.SPANS:
        assert module in tracer.MODULES
        mod = importlib.import_module(f"relusolve.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function}"
