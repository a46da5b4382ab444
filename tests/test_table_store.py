"""The table store as cache and as sharing path.

``successor_table(disk_cache=...)`` persists an in-RAM table as a store with
no shards and maps it back, keyed by the algorithm's cache fingerprint
(name + package version + rule-set digest) and size — so a warm CI job skips
the build while a release bump or a changed rule set rebuilds instead of
adopting stale arrays.  ``publish_table`` hands worker processes the same
stores: the persistent one when there is one, else a private copy the
publisher removes.
"""
from __future__ import annotations

import glob
import json
import os

import pytest

np = pytest.importorskip("numpy")

from repro.algorithms import create_algorithm
from repro.core import shared_tables
from repro.core.runner import iter_result_chunks, worker_algorithm
from repro.core.sharded_tables import cache_key, open_table_store, table_store_dir
from repro.core.shared_tables import attach_table, publish_table, unpublish_table
from repro.core.table_kernel import (
    SUCC_ARRAY_FIELDS,
    VIEW_ARRAY_FIELDS,
    clear_table_caches,
    successor_table,
)
from repro.enumeration.polyhex import FIXED_POLYHEX_COUNTS, enumerate_canonical_node_sets
from repro.grid.directions import Direction
from repro.obs import metrics

ALGORITHM = "shibata-visibility2"
SIZE = 5


def _fresh_algorithm():
    return create_algorithm(ALGORITHM)


def _private_stores():
    return set(glob.glob(os.path.join(shared_tables._private_root(), "repro_tbl_*")))


def _assert_tables_identical(left, right):
    for field in SUCC_ARRAY_FIELDS:
        assert np.array_equal(getattr(left, field), getattr(right, field)), field
    for field in VIEW_ARRAY_FIELDS:
        assert np.array_equal(getattr(left.view, field), getattr(right.view, field)), field
    assert left.view.visibility_range == right.view.visibility_range


def _builds():
    return metrics.counter("table.succ_builds").value


def test_round_trip_is_byte_identical(tmp_path):
    cache_dir = str(tmp_path)
    built = successor_table(_fresh_algorithm(), SIZE, disk_cache=cache_dir)
    store = table_store_dir(_fresh_algorithm(), SIZE, cache_dir)
    assert built.directory == store
    assert os.path.exists(os.path.join(store, "manifest.json"))

    builds_before = metrics.counter("table.view_builds").value, _builds()
    loaded_table = successor_table(_fresh_algorithm(), SIZE, disk_cache=cache_dir)
    assert (metrics.counter("table.view_builds").value, _builds()) == builds_before
    assert loaded_table.directory == store
    _assert_tables_identical(built, loaded_table)

    # the loaded table answers the whole-space verdict identically
    rows = np.arange(built.view.count)
    assert built.fsync_verdict(rows).root_census == loaded_table.fsync_verdict(rows).root_census


def test_store_dir_embeds_fingerprint_and_size(tmp_path):
    algorithm = _fresh_algorithm()
    name = os.path.basename(table_store_dir(algorithm, SIZE, str(tmp_path)))
    assert cache_key(algorithm) in name
    assert f"n{SIZE}" in name


def test_truncated_file_falls_back_to_rebuild(tmp_path):
    cache_dir = str(tmp_path)
    reference = successor_table(_fresh_algorithm(), SIZE, disk_cache=cache_dir)
    victim = os.path.join(reference.directory, "succ.npy")
    with open(victim, "r+b") as handle:
        handle.truncate(os.path.getsize(victim) - 4)
    builds_before = _builds()
    rebuilds_before = metrics.counter("table.shard_rebuilds").value
    rebuilt = successor_table(_fresh_algorithm(), SIZE, disk_cache=cache_dir)
    assert _builds() == builds_before + 1
    # the in-RAM layout goes through the same open-or-build path as shards
    assert metrics.counter("table.shard_rebuilds").value == rebuilds_before + 1
    _assert_tables_identical(reference, rebuilt)
    # the rebuild replaced the torn store with a valid one
    _assert_tables_identical(reference, open_table_store(reference.directory, SIZE))


def test_wrong_size_or_format_is_rebuilt(tmp_path):
    cache_dir = str(tmp_path)
    successor_table(_fresh_algorithm(), SIZE, disk_cache=cache_dir)
    # an n=5 store under the n=6 name must not load as the n=6 table
    wrong = table_store_dir(_fresh_algorithm(), SIZE + 1, cache_dir)
    os.replace(table_store_dir(_fresh_algorithm(), SIZE, cache_dir), wrong)
    rebuilt = successor_table(_fresh_algorithm(), SIZE + 1, disk_cache=cache_dir)
    assert rebuilt.view.count == FIXED_POLYHEX_COUNTS[SIZE + 1]
    # a store of another format version is stale too
    manifest_path = os.path.join(wrong, "manifest.json")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    manifest["format"] = 999
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)
    builds_before = _builds()
    successor_table(_fresh_algorithm(), SIZE + 1, disk_cache=cache_dir)
    assert _builds() == builds_before + 1


def test_environment_variable_enables_the_cache(tmp_path, monkeypatch):
    cache_dir = str(tmp_path)
    monkeypatch.setenv("REPRO_TABLE_CACHE", cache_dir)
    built = successor_table(_fresh_algorithm(), 4)
    assert os.path.isdir(table_store_dir(_fresh_algorithm(), 4, cache_dir))
    builds_before = _builds()
    loaded_table = successor_table(_fresh_algorithm(), 4)
    assert _builds() == builds_before
    _assert_tables_identical(built, loaded_table)
    # an explicit argument wins over the environment variable
    monkeypatch.setenv("REPRO_TABLE_CACHE", "/nonexistent/never-created")
    successor_table(_fresh_algorithm(), 4, disk_cache=cache_dir)
    assert not os.path.exists("/nonexistent")


def test_cache_key_is_filename_safe_and_distinct():
    full = create_algorithm("shibata-visibility2")
    ablated = create_algorithm("shibata-visibility2[minus-R4]")
    assert cache_key(full) != cache_key(ablated)
    for key in (cache_key(full), cache_key(ablated)):
        assert "/" not in key and "[" not in key


def test_cache_key_distinguishes_rule_set_content():
    # Same registry name, different data-driven behaviour: the fingerprint
    # must keep their table stores apart.
    from repro.synth import OverrideAlgorithm

    base = create_algorithm("shibata-visibility2")
    east = OverrideAlgorithm(base, {3: Direction.E}, name="same-name")
    west = OverrideAlgorithm(base, {3: Direction.W}, name="same-name")
    assert cache_key(east) != cache_key(west)


def test_registered_synth_algorithm_carries_a_fingerprint():
    algorithm = create_algorithm("shibata-visibility2-synth")
    assert getattr(algorithm, "cache_fingerprint", "")


def test_derived_algorithm_tables_cache_under_their_own_fingerprint(tmp_path):
    cache_dir = str(tmp_path)
    base = _fresh_algorithm()
    derived = create_algorithm("shibata-visibility2-synth2")
    assert cache_key(base) != cache_key(derived)
    base_table = successor_table(base, 4, disk_cache=cache_dir)
    derived_table = successor_table(derived, 4, disk_cache=cache_dir)
    base_store = table_store_dir(base, 4, cache_dir)
    derived_store = table_store_dir(derived, 4, cache_dir)
    assert base_store != derived_store
    # opening each back preserves their distinct transition functions
    assert np.array_equal(base_table.succ, open_table_store(base_store, 4).succ)
    assert np.array_equal(derived_table.succ, open_table_store(derived_store, 4).succ)


def test_attached_arrays_are_plain_read_only_ndarrays(monkeypatch):
    monkeypatch.delenv("REPRO_TABLE_CACHE", raising=False)
    clear_table_caches()
    table = successor_table(_fresh_algorithm(), SIZE)
    clear_table_caches()  # so the attach registers its own mapped view table
    handle = publish_table(table, ALGORITHM)
    try:
        attached = attach_table(handle)
        arrays = [getattr(attached, field) for field in SUCC_ARRAY_FIELDS]
        arrays += [getattr(attached.view, field) for field in VIEW_ARRAY_FIELDS]
        for array in arrays:
            assert type(array) is np.ndarray
            assert not array.flags.writeable
        _assert_tables_identical(table, attached)
    finally:
        unpublish_table(handle)
        clear_table_caches()
        clear_table_caches(worker_algorithm(ALGORITHM))


def test_persisted_table_is_published_without_a_copy(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TABLE_CACHE", str(tmp_path))
    algorithm = _fresh_algorithm()
    table = successor_table(algorithm, SIZE)
    before = _private_stores()
    handle = publish_table(table, ALGORITHM)
    assert handle.directory == table_store_dir(algorithm, SIZE, str(tmp_path))
    assert not handle.owned
    assert _private_stores() == before
    unpublish_table(handle)
    assert os.path.isdir(handle.directory)  # the persistent store stays


def test_abandoned_iteration_leaves_no_private_store(monkeypatch):
    monkeypatch.delenv("REPRO_TABLE_CACHE", raising=False)
    clear_table_caches(worker_algorithm(ALGORITHM))
    before = _private_stores()
    chunks = iter_result_chunks(
        enumerate_canonical_node_sets(SIZE),
        algorithm_name=ALGORITHM,
        workers=2,
        chunk_size=16,
        kernel="table",
    )
    assert next(chunks)
    assert _private_stores() - before  # published while the pool runs
    chunks.close()
    assert _private_stores() == before
