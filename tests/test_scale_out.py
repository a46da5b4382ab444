"""Scale-out invariants: the state-space engine past the paper's n=7.

Property tests for the three legs of the scale-out work:

* the polyhex enumeration reproduces the fixed-polyhex counts at n=8 and
  (streamed) n=9;
* the bitset SSYNC activation enumeration is byte-identical to the
  ``itertools.combinations`` oracle (``tests/oracles.py``) over *every*
  seven-robot root and a seeded sample of eight-robot roots;
* the parallel scheduled sweep over a published table store equals the
  serial table sweep exactly and never leaks a ``/dev/shm`` directory, and the
  publish/attach/unpublish round trip preserves every array.

The exhaustive n=8 censuses pinned in :mod:`repro.analysis.census_pins`
are re-derived end to end on the table kernel.
"""
import glob
import random

import pytest

np = pytest.importorskip("numpy")  # the scale-out paths ride the table kernel

from repro import obs
from repro.algorithms.visibility2 import ShibataGatheringAlgorithm
from repro.analysis.census_pins import (
    N8_ROOTS,
    PINNED_CENSUS,
    PINNED_CENSUS_N8,
    pinned_census,
)
from repro.core import runner
from repro.core.runner import run_many, worker_algorithm
from repro.core.sharded_tables import sharded_successor_table
from repro.core.shared_tables import attach_table, publish_table, unpublish_table
from repro.core.table_kernel import (
    clear_table_caches,
    estimate_table_bytes,
    max_table_size,
    successor_table,
    table_in_scope,
    view_table,
)
from repro.enumeration.polyhex import (
    FIXED_POLYHEX_COUNTS,
    enumerate_canonical_node_sets,
    iter_canonical_node_sets,
)
from repro.explore import explore
from repro.explore.transitions import expand_packed
from repro.grid.packing import pack_nodes

from oracles import expand_packed_combinations


def _shm_stores():
    return set(glob.glob("/dev/shm/repro_tbl_*"))


def _assert_no_shm_leak(before):
    # Only stores this test made: another process's sweep may hold its own.
    leaked = sorted(_shm_stores() - before)
    assert not leaked, f"leaked shared-memory segments: {leaked}"


# ---------------------------------------------------------------- enumeration
def test_polyhex_n8_count():
    shapes = enumerate_canonical_node_sets(8)
    assert len(shapes) == FIXED_POLYHEX_COUNTS[8] == N8_ROOTS
    assert len({pack_nodes(shape) for shape in shapes}) == N8_ROOTS
    assert all(len(shape) == 8 for shape in shapes)


def test_polyhex_n9_streamed_count():
    # The streaming iterator converts the level array block by block and
    # never keeps the 77359-tuple level itself.
    assert sum(1 for _ in iter_canonical_node_sets(9)) == FIXED_POLYHEX_COUNTS[9]


# ------------------------------------------------------------- bitset SSYNC
def _assert_expansions_identical(packed_roots, algorithm, modes):
    for mode in modes:
        for packed in packed_roots:
            fast = expand_packed(packed, algorithm, mode=mode)
            oracle = expand_packed_combinations(packed, algorithm, mode=mode)
            assert fast == oracle


def test_bitset_expansion_identical_on_all_n7_roots():
    algorithm = ShibataGatheringAlgorithm()
    roots = [pack_nodes(shape) for shape in enumerate_canonical_node_sets(7)]
    _assert_expansions_identical(roots, algorithm, ("ssync", "fsync"))


def test_bitset_expansion_identical_on_sampled_n8_roots():
    algorithm = ShibataGatheringAlgorithm()
    shapes = enumerate_canonical_node_sets(8)
    rng = random.Random(88)
    sample = [pack_nodes(shape) for shape in rng.sample(shapes, 250)]
    _assert_expansions_identical(sample, algorithm, ("ssync", "fsync"))


# ----------------------------------------------------------- pinned censuses
def test_pinned_census_n8_accessor():
    for (algorithm, mode), pinned in PINNED_CENSUS_N8.items():
        assert sum(pinned.values()) == N8_ROOTS
        assert pinned_census(algorithm, mode, size=8) == pinned
    assert pinned_census("shibata-visibility2", "fsync") == PINNED_CENSUS[
        ("shibata-visibility2", "fsync")
    ]
    assert sum(pinned_census("shibata-visibility2", "fsync", size=9).values()) == 77359
    assert sum(pinned_census("shibata-visibility2", "fsync", size=10).values()) == 362671
    with pytest.raises(KeyError):
        pinned_census("shibata-visibility2", "fsync", size=11)
    with pytest.raises(KeyError):
        pinned_census("shibata-visibility2", "ssync", size=10)


def test_n8_censuses_match_pins():
    # End-to-end re-derivation of the scale-out pins on the table kernel;
    # one algorithm instance so the successor table builds once.
    clear_table_caches()
    algorithm = ShibataGatheringAlgorithm()
    for mode in ("fsync", "ssync"):
        report = explore(
            algorithm=algorithm, size=8, mode=mode, kernel="table",
            with_witnesses=False,
        )
        assert not report.graph.truncated
        assert dict(report.root_census) == pinned_census(
            "shibata-visibility2", mode, size=8
        )
    clear_table_caches(algorithm)


# ------------------------------------------------------------- scope policy
def test_table_scope_policy():
    assert max_table_size() >= 8, "the default budget must cover the n=8 space"
    assert table_in_scope(7) and table_in_scope(8)
    assert not table_in_scope(0)
    assert not table_in_scope(max_table_size() + 1)
    # The estimate grows with the state space, so the memory bound is monotone.
    assert estimate_table_bytes(8) > estimate_table_bytes(7) > 0


def test_clear_table_caches_drops_views_and_tables(tmp_path):
    view_table(4, 2)
    algorithm = ShibataGatheringAlgorithm()
    successor_table(algorithm, 4)
    sharded_successor_table(algorithm, 4, cache_dir=str(tmp_path), shard_rows=8)
    assert algorithm._successor_tables
    assert algorithm._sharded_tables
    clear_table_caches(algorithm)
    assert not algorithm._successor_tables
    assert not algorithm._sharded_tables
    from repro.core.table_kernel import _VIEW_TABLES

    assert not _VIEW_TABLES


# ----------------------------------------------------------- table sharing
def test_shared_table_publish_attach_roundtrip():
    clear_table_caches()
    clear_table_caches(worker_algorithm("shibata-visibility2"))
    stores_before = _shm_stores()
    algorithm = ShibataGatheringAlgorithm()
    table = successor_table(algorithm, 5)
    handle = publish_table(table, "shibata-visibility2")
    try:
        # An in-RAM table with no store of its own gets a private copy.
        assert handle.owned and glob.glob(handle.directory)
        attached = attach_table(handle)
        assert np.array_equal(attached.succ, table.succ)
        assert np.array_equal(attached.codes, table.codes)
        assert np.array_equal(attached.mover_count, table.mover_count)
        assert np.array_equal(attached.view.positions, table.view.positions)
        assert np.array_equal(attached.view.diameters, table.view.diameters)
        # Attaching is memoized per store: same object back.
        assert attach_table(handle) is attached
        assert worker_algorithm("shibata-visibility2")._successor_tables[5] is attached
    finally:
        unpublish_table(handle)
        unpublish_table(handle)  # idempotent
        clear_table_caches(algorithm)
        clear_table_caches(worker_algorithm("shibata-visibility2"))
    # The attached arrays outlive the removed files: mappings stay valid.
    assert int(attached.succ.sum()) == int(table.succ.sum())
    _assert_no_shm_leak(stores_before)


def test_parallel_table_sweep_matches_serial_and_cleans_up(monkeypatch):
    # A scheduled batch: an FSYNC table batch is answered in process and
    # would start no pool and publish no store.
    clear_table_caches()
    stores_before = _shm_stores()
    configurations = enumerate_canonical_node_sets(7)[::16]
    algorithm = ShibataGatheringAlgorithm()
    serial = run_many(configurations, algorithm=algorithm, scheduler="round-robin:2",
                      max_rounds=600, kernel="table")
    clear_table_caches(algorithm)
    monkeypatch.delitem(runner._WORKER_ALGORITHMS, "shibata-visibility2", raising=False)
    obs.export_delta()
    parallel = run_many(configurations, algorithm_name="shibata-visibility2",
                        scheduler="round-robin:2", max_rounds=600, kernel="table",
                        workers=2)
    assert obs.export_delta()["counters"].get("shm.segments_published", 0) >= 1
    assert parallel.workers == 2
    assert parallel.results == serial.results
    _assert_no_shm_leak(stores_before)
