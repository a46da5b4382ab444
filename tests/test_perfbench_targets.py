"""The benchmark tracer's wrap targets still exist in the program.

``perfbench/tracer.py`` wraps functions of ``repro`` by module and attribute
path, and its ``install()`` raises ``KeyError`` on a renamed or deleted
target — which would only surface when the benchmark runs traced.  This test
loads the tracer by file path (without installing anything) and resolves
every target the way ``install()`` does.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_under_test", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize(
    "module_name, path, items",
    [(module_name, path, items) for module_name, path, _, _, items in TARGETS],
    ids=[f"{module_name}:{path}" for module_name, path, *_ in TARGETS],
)
def test_tracer_target_resolves(module_name, path, items):
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        assert attr in owner.__dict__, f"{owner_name} has no attribute {attr!r} of its own"
    else:
        assert callable(getattr(module, attr))
    if items == "requests":
        # The "requests" item rule reads the pending batch of the key
        # ``_flush`` is called with.
        assert isinstance(owner().__dict__.get("_pending"), dict)
