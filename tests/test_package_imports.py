"""The package root must not shadow its subpackages."""
import importlib

import repro


def test_explore_subpackage_is_importable_through_the_root():
    transitions = importlib.import_module("repro.explore.transitions")
    import repro.explore.transitions as by_statement

    assert by_statement is transitions
    assert repro.explore is importlib.import_module("repro.explore")
    assert callable(repro.explore.explore)


def test_root_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
