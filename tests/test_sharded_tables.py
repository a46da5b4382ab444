"""The out-of-core sharded table tier: byte identity with RAM, edge cases.

Property tests for the disk tier (:mod:`repro.core.sharded_tables`):

* the sharded table is **byte-identical** to the monolithic in-RAM table —
  every functional-graph array, the memoized FSYNC summary, exhaustive
  sweeps, SSYNC expansions, explorer graphs (both modes) and single-execution
  traces;
* the vectorized sort+adjacent-compare collision path equals the pairwise
  oracle (``tests/oracles.py``) over all 3,652 n=7 rows and sampled n=8
  rows;
* shard boundaries behave: shard size 1, a partial last shard, corrupt /
  stale / aborted shard stores are detected and rebuilt;
* the scope policy admits n=10 under the default budget and the n=9/n=10
  census pins are internally consistent;
* both tiers report the same build-pass spans, nested in their build span.
"""
import json
import os
import random

import pytest

np = pytest.importorskip("numpy")  # the sharded tier rides the table kernel

from repro.algorithms.visibility2 import ShibataGatheringAlgorithm
from repro.analysis.census_pins import (
    N9_ROOTS,
    N10_ROOTS,
    PINNED_CENSUS_N9,
    PINNED_CENSUS_N10,
    census_ok,
    pinned_census,
)
from repro.core import table_kernel
from repro.core.configuration import Configuration
from repro.core.engine import run_execution
from repro.core.runner import autotune_chunk_size, run_many
from repro.core.sharded_tables import (
    ShardedTableError,
    build_sharded_table,
    open_sharded_table,
    sharded_successor_table,
    sharded_table_dir,
)
from repro.core.table_kernel import (
    clear_table_caches,
    estimate_sharded_bytes,
    record_peak_rss,
    sharded_in_scope,
    sharded_max_table_size,
    successor_table,
)
from repro.enumeration.polyhex import FIXED_POLYHEX_COUNTS
from repro.explore import explore
from repro.obs import close_sink, configure_sink
from repro.obs import metrics as _obs

from oracles import byte_index_lookup, reference_resolve_rows


def _algorithm():
    return ShibataGatheringAlgorithm()


@pytest.fixture
def shard_cache(tmp_path, monkeypatch):
    """An isolated shard-store root for one test."""
    monkeypatch.setenv("REPRO_TABLE_CACHE", str(tmp_path))
    return str(tmp_path)


@pytest.fixture
def sharded_only_scope(monkeypatch):
    """Force every size out of the in-RAM tier so the sharded tier serves it.

    The facade normally only answers past ``max_table_size()``; the identity
    tests need it to answer the small spaces where the monolithic table is
    available as the oracle.
    """
    monkeypatch.setattr(table_kernel, "table_in_scope", lambda size: False)


# ---------------------------------------------------------------- scope policy
def test_sharded_scope_policy():
    assert sharded_max_table_size() == 10
    assert sharded_in_scope(10)
    assert not sharded_in_scope(11)
    assert not sharded_in_scope(0)
    # ~20 MB narrow residency at n=10 — two orders under the in-RAM estimate.
    assert estimate_sharded_bytes(10) == FIXED_POLYHEX_COUNTS[10] * (35 + 2 * 10)
    # A tiny budget collapses the sharded tier too.
    assert sharded_max_table_size(budget=1) < 10


def test_peak_rss_gauge_records():
    rss = record_peak_rss()
    assert rss > 0
    assert _obs.gauge("table.peak_rss_bytes").value == rss


# ------------------------------------------------------------------ the pins
def test_n9_n10_pin_accessors():
    assert FIXED_POLYHEX_COUNTS[9] == N9_ROOTS == 77359
    assert FIXED_POLYHEX_COUNTS[10] == N10_ROOTS == 362671
    for (alg, mode), pinned in PINNED_CENSUS_N9.items():
        assert sum(pinned.values()) == N9_ROOTS
        assert pinned_census(alg, mode, size=9) == pinned
    for (alg, mode), pinned in PINNED_CENSUS_N10.items():
        assert mode == "fsync"  # SSYNC at n=10 awaits a disk-streamed BFS
        assert sum(pinned.values()) == N10_ROOTS
        assert pinned_census(alg, mode, size=10) == pinned
    # Adversarial SSYNC can only lose roots relative to FSYNC.
    fsync = pinned_census("shibata-visibility2", "fsync", size=9)
    ssync = pinned_census("shibata-visibility2", "ssync", size=9)
    assert census_ok(ssync) <= census_ok(fsync)


# ------------------------------------------------------------- pass spans
_PASS_SPANS = ("table.compute", "table.geometry", "table.resolve")


def _traced(path, build):
    """The trace records ``build()`` emits, read back from a JSONL sink."""
    configure_sink(path)
    try:
        build()
    finally:
        close_sink()
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def test_both_tiers_report_the_same_pass_spans(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_TABLE_CACHE", raising=False)
    clear_table_caches()  # so the in-RAM build runs its geometry pass too
    in_ram = _traced(str(tmp_path / "in_ram.jsonl"), lambda: successor_table(_algorithm(), 6))
    sharded = _traced(
        str(tmp_path / "sharded.jsonl"),
        lambda: sharded_successor_table(
            _algorithm(), 6, cache_dir=str(tmp_path), shard_rows=1000
        ),
    )
    for records, enclosing in ((in_ram, "table.succ_build"), (sharded, "table.shard_build")):
        passes = [r for r in records if r["name"] in _PASS_SPANS]
        assert sorted(r["name"] for r in passes) == list(_PASS_SPANS)
        (outer,) = [r["seconds"] for r in records if r["name"] == enclosing]
        # Trace seconds are rounded to 1 us: allow that much per span.
        assert sum(r["seconds"] for r in passes) <= outer + 4e-6


# ----------------------------------------------------------- byte identity
@pytest.mark.parametrize("size,shard_rows", [(7, 1000), (8, 4096)])
def test_sharded_arrays_identical_to_monolithic(shard_cache, size, shard_rows):
    mono = successor_table(_algorithm(), size)
    sharded = sharded_successor_table(_algorithm(), size, shard_rows=shard_rows)
    vt = mono.view
    assert sharded.view.count == vt.count == FIXED_POLYHEX_COUNTS[size]
    for field in ("kind", "succ", "mover_bits", "mover_count", "collision_code"):
        assert np.array_equal(getattr(sharded, field), getattr(mono, field)), field
    assert np.array_equal(sharded.view.gathered, vt.gathered)
    assert np.array_equal(sharded.view.diameters, vt.diameters)
    assert np.array_equal(sharded.codes, mono.codes)
    rng = random.Random(size)
    for row in rng.sample(range(vt.count), 64):
        assert np.array_equal(sharded.move_code[row], mono.move_code[row])
        assert np.array_equal(sharded._row_positions(row), vt.positions[row])
        assert sharded.packed_of_row(row) == vt.packed[row]


def test_sharded_summary_sweep_and_expansions_identical(shard_cache):
    mono = successor_table(_algorithm(), 7)
    sharded = sharded_successor_table(_algorithm(), 7, shard_rows=512)
    ms, ss = mono.fsync_summary(), sharded.fsync_summary()
    for field in ("outcome", "rounds", "moves", "final"):
        assert np.array_equal(getattr(ms, field), getattr(ss, field)), field
    rows = np.arange(mono.view.count)
    assert mono.fsync_verdict(rows).root_census == sharded.fsync_verdict(rows).root_census
    for outs_m, outs_s in zip(
        mono.batch_outcomes(rows[:500], 500), sharded.batch_outcomes(rows[:500], 500)
    ):
        assert list(outs_m) == list(outs_s)
    rng = random.Random(7)
    for row in rng.sample(range(mono.view.count), 48):
        assert mono.expand_row(row, "fsync") == sharded.expand_row(row, "fsync")
        assert mono.expand_row(row, "ssync") == sharded.expand_row(row, "ssync")
        assert mono.walk_outcome(row, 300) == sharded.walk_outcome(row, 300)


def test_sharded_explorer_graphs_identical(shard_cache, sharded_only_scope):
    # With the in-RAM tier disabled the explorer streams from the shard
    # store; the packed kernel is the independent oracle.
    for mode in ("fsync", "ssync"):
        via_sharded = explore(
            algorithm_name="shibata-visibility2", mode=mode, size=5,
            with_witnesses=False, kernel="table",
        )
        oracle = explore(
            algorithm_name="shibata-visibility2", mode=mode, size=5,
            with_witnesses=False, kernel="packed",
        )
        assert via_sharded.root_census == oracle.root_census
        assert via_sharded.graph.edges == oracle.graph.edges
        assert via_sharded.graph.terminal == oracle.graph.terminal


def test_sharded_traces_identical_to_packed(shard_cache, sharded_only_scope):
    algorithm = _algorithm()
    table = sharded_successor_table(algorithm, 6, shard_rows=200)
    rng = random.Random(6)
    for row in rng.sample(range(table.view.count), 16):
        nodes = [(int(q) + 3, int(r) - 2) for q, r in table._row_positions(row)]
        configuration = Configuration(nodes)
        via_table = run_execution(configuration, algorithm, kernel="table",
                                  record_rounds=True)
        oracle = run_execution(configuration, _algorithm(), kernel="packed",
                               record_rounds=True)
        assert via_table.outcome == oracle.outcome
        assert via_table.num_rounds == oracle.num_rounds
        assert via_table.total_moves == oracle.total_moves
        assert [r.configuration for r in via_table.rounds] == [
            r.configuration for r in oracle.rounds
        ]


def test_runner_batch_rides_sharded_tier(shard_cache, sharded_only_scope):
    algorithm = _algorithm()
    table = sharded_successor_table(algorithm, 5, shard_rows=33)
    roots = [
        tuple((int(q), int(r)) for q, r in table._row_positions(row))
        for row in range(0, table.view.count, 7)
    ]
    batch = run_many(roots, algorithm=algorithm, kernel="table")
    oracle = run_many(roots, algorithm=_algorithm(), kernel="packed")
    assert [
        (r.outcome, r.rounds, r.total_moves) for r in batch.results
    ] == [(r.outcome, r.rounds, r.total_moves) for r in oracle.results]


# --------------------------------------------------- vectorized == oracle
def _resolve_with_oracle(vt, rows, move_code, lookup):
    """The pairwise-tensor oracle of ``resolve_rows_arrays`` over ``rows``."""
    return reference_resolve_rows(vt.positions[rows], move_code, vt.gathered[rows], lookup)


def test_vectorized_resolution_equals_pairwise_oracle_n7():
    mono = successor_table(_algorithm(), 7)
    vt = mono.view
    rows = np.arange(vt.count)
    oracle = _resolve_with_oracle(vt, rows, mono.move_code, byte_index_lookup(vt.positions))
    fields = ("mover_bits", "mover_count", "kind", "succ", "collision_code")
    for field, want in zip(fields, oracle):
        assert np.array_equal(getattr(mono, field), want), field


def test_vectorized_resolution_equals_pairwise_oracle_sampled_n8():
    mono = successor_table(_algorithm(), 8)
    vt = mono.view
    rng = random.Random(8)
    rows = np.array(sorted(rng.sample(range(vt.count), 2048)))
    move_code = np.stack([np.asarray(mono.move_code[int(r)]) for r in rows])
    fast = table_kernel.resolve_rows_arrays(
        vt.positions[rows], move_code, vt.gathered[rows], vt.rows_of_canonical
    )
    slow = _resolve_with_oracle(vt, rows, move_code, vt.rows_of_canonical)
    for got, want in zip(fast, slow):
        assert np.array_equal(got, want)


# ------------------------------------------------------------- shard edges
def test_shard_rows_one_and_partial_last_shard(shard_cache):
    mono = successor_table(_algorithm(), 4)
    # Shard size 1: one row per shard file.
    one = sharded_successor_table(_algorithm(), 4, shard_rows=1)
    assert one.shards == mono.view.count
    assert np.array_equal(one.succ, mono.succ)
    # A last partial shard: 7 does not divide the 22-row n=4 space.
    ragged = sharded_successor_table(_algorithm(), 4, shard_rows=7)
    assert ragged.shards == -(-mono.view.count // 7)
    assert np.array_equal(ragged.kind, mono.kind)
    last = ragged.shards - 1
    tail = mono.view.count - last * 7
    assert len(ragged._shard_arrays(last)["positions"]) == tail


def test_corrupt_shard_file_detected_and_rebuilt(shard_cache):
    algorithm = _algorithm()
    directory = build_sharded_table(algorithm, 4, sharded_table_dir(algorithm, 4, 8), 8)
    victim = os.path.join(directory, "shard-0001-positions.npy")
    with open(victim, "ab") as handle:
        handle.write(b"garbage")
    with pytest.raises(ShardedTableError):
        open_sharded_table(directory, 4)
    # The memoized loader treats the failure as staleness and rebuilds.
    rebuilt = sharded_successor_table(algorithm, 4, shard_rows=8)
    assert np.array_equal(rebuilt.succ, successor_table(_algorithm(), 4).succ)


def test_stale_format_and_aborted_build_rejected(shard_cache):
    algorithm = _algorithm()
    directory = build_sharded_table(algorithm, 3, sharded_table_dir(algorithm, 3, 4), 4)
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    manifest["format"] = 999
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)
    with pytest.raises(ShardedTableError):
        open_sharded_table(directory, 3)
    # An aborted build is a directory without a manifest at all.
    os.remove(manifest_path)
    with pytest.raises(ShardedTableError):
        open_sharded_table(directory, 3)
    # A size mismatch is stale too.
    other = build_sharded_table(algorithm, 4, sharded_table_dir(algorithm, 4, 4), 4)
    with pytest.raises(ShardedTableError):
        open_sharded_table(other, 5)


def test_sharded_table_is_immutable(shard_cache):
    table = sharded_successor_table(_algorithm(), 4, shard_rows=8)
    with pytest.raises(NotImplementedError):
        table.derive({}, {})


# -------------------------------------------------------- worker attachment
def test_attach_sharded_registers_on_worker_algorithm(shard_cache):
    from repro.core.runner import worker_algorithm
    from repro.core.shared_tables import attach_table, publish_table, unpublish_table

    algorithm = _algorithm()
    table = sharded_successor_table(algorithm, 4, shard_rows=8)
    handle = publish_table(table, "shibata-visibility2")
    worker = worker_algorithm("shibata-visibility2")
    try:
        # A shard store is published as itself: no private copy.
        assert handle.directory == table.directory and not handle.owned
        attached = attach_table(handle)  # one dispatch point for both layouts
        assert np.array_equal(attached.succ, table.succ)
        assert worker._sharded_tables[4] is attached
        # Memoized: a second attach is the same object.
        assert attach_table(handle) is attached
    finally:
        unpublish_table(handle)
        worker._sharded_tables.pop(4, None)
    assert os.path.isdir(table.directory)  # the persistent store outlives it


def test_concurrent_builds_of_one_store_agree(tmp_path):
    # Three spawned processes race to build the same small store; none may
    # delete another's files, and every result equals the in-RAM table.
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    with context.Pool(3) as pool:
        results = pool.map_async(_build_and_read_store, [str(tmp_path)] * 3).get(timeout=300)
    mono = successor_table(_algorithm(), 6)
    for arrays in results:
        for field, array in arrays.items():
            assert array.tobytes() == getattr(mono, field).tobytes(), field


def _build_and_read_store(root):
    directory = os.path.join(root, "store")
    algorithm = _algorithm()
    build_sharded_table(algorithm, 6, directory, shard_rows=50)
    table = open_sharded_table(directory, 6)
    return {
        field: np.array(getattr(table, field))
        for field in ("kind", "succ", "mover_bits", "mover_count", "collision_code")
    }


# ------------------------------------------------------------ chunk autotune
def test_autotune_chunk_size_bounds():
    assert autotune_chunk_size(0, 2) == 32
    assert autotune_chunk_size(100, 2) == 32
    assert autotune_chunk_size(16689, 2) == -(-16689 // 8)
    assert autotune_chunk_size(10**9, 2) == 4096
    # More workers -> smaller chunks (finer balancing).
    assert autotune_chunk_size(16689, 8) < autotune_chunk_size(16689, 2)
