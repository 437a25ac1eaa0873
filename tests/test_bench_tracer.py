"""The benchmark tracer's hooks still name live code.

`bench/tracer.py` patches each entry of its `TARGETS` by name: a function in
its module, or a method in its own class's `__dict__`.  A target that moved
(a renamed function, a method inherited from a new base class) breaks only a
traced benchmark run, with a `KeyError`, so this checks every path here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parent.parent / "bench" / "tracer.py")
TRACER = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(TRACER)
TARGETS = TRACER.TARGETS


@pytest.mark.parametrize("name, mod, path", [t[:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_tracer_target_resolves(name, mod, path):
    owner = importlib.import_module(f"quivertt.{mod}")
    *cls, attr = path.split(".")
    if cls:
        owner = getattr(owner, cls[0])
        assert isinstance(owner, type), f"{name}: {cls[0]} is not a class"
        assert attr in owner.__dict__, f"{name}: {attr} is not defined on {cls[0]} itself"
    else:
        assert callable(getattr(owner, attr, None)), f"{name}: quivertt.{mod} has no function {attr}"
