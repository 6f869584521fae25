"""The benchmark's traced layers must name functions the package defines,
and every name the package exports must exist.

benchmark/tracer.py wraps each name in its LAYERS by attribute lookup, so a
renamed or deleted function crashes a traced run. The file is read and
executed here, so that no bytecode cache is written beside it."""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def test_every_traced_layer_resolves_to_a_package_function():
    tracer = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(tracer))
    assert tracer.LAYERS
    for name in tracer.LAYERS + tracer.SIZED_LAYERS + (tracer.OPTIMIZER_LAYER,):
        module, func = name.split(".")
        assert module in tracer.MODULES, name
        target = getattr(importlib.import_module(f"{tracer.PACKAGE}.{module}"), func, None)
        assert callable(target), f"{name} is not a callable of the package"


def test_every_exported_name_resolves():
    package = importlib.import_module("ossvqa")
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing, f"__all__ names missing attributes: {missing}"
