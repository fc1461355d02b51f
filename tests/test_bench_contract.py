"""The benchmark's tracer wraps package callables by name from outside
(perfbench/tracing.py).  Every name it wraps must still exist where it
looks, or a traced benchmark run fails before it starts."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing",
    Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attr, _, _ in tracing.TRACED_FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert attr in vars(importlib.import_module(module))


@pytest.mark.parametrize("module, cls, attr", [
    (module, cls, attr) for module, cls, attr, _, _
    in tracing.TRACED_METHODS])
def test_traced_method_resolves(module, cls, attr):
    assert attr in vars(getattr(importlib.import_module(module), cls))
