"""The benchmark's traced spans and every module's exports name things the package still has."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import relusolve

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


def test_every_exported_name_resolves():
    modules = [relusolve] + [
        importlib.import_module(f"relusolve.{info.name}") for info in pkgutil.iter_modules(relusolve.__path__)
    ]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
