"""Every name the benchmark's tracer wraps still exists in the package.

``bench/tracer.py`` lists its targets as ``module: (name, ...)``, with
methods written ``Class.method``.  A deleted or renamed target would only
show when the benchmark runs; this reads ``TARGETS`` off the file, without
importing the bench code, and resolves each name here.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


TRACED = [f"{mod}.{name}" for mod, names in _targets().items() for name in names]


def test_the_tracer_lists_targets():
    assert "semantics.classify" in TRACED
    assert "algebra.AlgebraModel.validate" in TRACED


@pytest.mark.parametrize("traced", TRACED)
def test_traced_name_resolves_on_the_package(traced):
    mod, *path = traced.split(".")
    obj = importlib.import_module(f"arenscalc.{mod}")
    for attr in path:
        obj = getattr(obj, attr)
    assert callable(obj)


def test_no_module_value_carries_a_wrapped_attribute():
    # the tracer reads any ``__wrapped__`` on a module-level value as one of
    # its wrappers left installed, so the caches the package builds with
    # ``functools`` must drop theirs
    import arenscalc.cli  # noqa: F401  (imports every module the CLI runs)

    modules = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "arenscalc"}
    assert {"arenscalc.tensor", "arenscalc.semantics", "arenscalc.cli"} <= modules.keys()
    wrapped = sorted(f"{k}.{name}" for k, m in modules.items()
                     for name, v in vars(m).items() if hasattr(v, "__wrapped__"))
    assert wrapped == []
