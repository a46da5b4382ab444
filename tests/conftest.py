"""Shared fixtures for the test suite.

The session-scoped shared-memory guard catches leaked ``repro_tbl_*``
segments from *any* test, not just the scale-out suite: a segment that
survives the session is host-wide state (``/dev/shm`` outlives the
process) and would poison every later run on the machine.

``recovery_roots`` is the 60-root state space of the CEGIS deleted-guard
recovery, shared by the synthesis tests and the SSYNC row-verdict tests.
"""
from __future__ import annotations

import glob

import pytest


@pytest.fixture(autouse=True, scope="session")
def no_shared_memory_leak():
    """Fail the session if any ``repro_tbl_*`` shared-memory segment leaks."""
    before = set(glob.glob("/dev/shm/repro_tbl_*"))
    yield
    leaked = sorted(set(glob.glob("/dev/shm/repro_tbl_*")) - before)
    assert not leaked, f"leaked shared-memory segments: {leaked}"


@pytest.fixture(scope="session")
def recovery_roots():
    """Roots the full algorithm gathers but the ablated variant deadlocks."""
    from repro.explore import explore
    from repro.grid.packing import unpack_nodes

    full = explore(algorithm_name="shibata-visibility2", mode="fsync", with_witnesses=False)
    ok_full = {
        packed
        for packed in full.graph.roots
        if full.classification.node_class[packed] in ("gathered", "safe")
    }
    ablated = explore(
        algorithm_name="shibata-visibility2[minus-R3c]", mode="fsync", with_witnesses=False
    )
    affected = [
        packed
        for packed in ablated.graph.roots
        if ablated.classification.node_class[packed] not in ("gathered", "safe")
        and packed in ok_full
    ]
    assert len(affected) > 100  # deleting R3c opens a real gap
    return [unpack_nodes(packed) for packed in affected[:60]]
