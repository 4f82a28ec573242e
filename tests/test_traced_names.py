"""The library names the benchmark's tracer looks up (``perfbench/spans.py``)
must exist: a function or method deleted or renamed would otherwise show
only in a traced benchmark run."""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans() -> types.ModuleType:
    """``spans.py`` executed from its source, so that no bytecode is written
    next to it."""
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "module, attr", [target for targets in spans.FUNCTIONS.values() for target in targets]
)
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"itpref.{module}"), attr))


@pytest.mark.parametrize("module, base, attr", list(spans.METHODS.values()))
def test_traced_method_is_defined_on_its_base_class(module, base, attr):
    cls = getattr(importlib.import_module(f"itpref.{module}"), base)
    assert attr in cls.__dict__
