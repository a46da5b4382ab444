"""The array-pass SSYNC expander agrees with the row-at-a-time walk.

:meth:`repro.core.table_kernel.SuccessorTable.expand_rows` resolves every
activation subset of every row as a masked full-activation round.  These
tests pin it, byte for byte, to :func:`oracles.rowwise_expansion` — the
word-at-a-time subset walk it replaced — on every table-scoped registered
algorithm, at n=8, on ragged batches, along a derivation lineage and on the
sharded tier.
"""
import json

import pytest

np = pytest.importorskip("numpy")

from repro.algorithms.registry import available_algorithms, create_algorithm
from repro.core.sharded_tables import sharded_successor_table
from repro.core.table_kernel import (
    SuccessorTable,
    clear_table_caches,
    successor_table,
    table_in_scope,
    view_in_scope,
)
from repro.obs import close_sink, configure_sink
from repro.obs import metrics as _obs
from repro.synth.ruleset import OverrideAlgorithm, learned_amend_ruleset, ruleset_layers

from oracles import rowwise_expansion

MODES = ("fsync", "ssync")

TABLE_SCOPED = [
    name
    for name in available_algorithms()
    if view_in_scope(create_algorithm(name).visibility_range)
]


def _assert_matches_oracle(table, rows, mode):
    rows = list(rows)
    want = [rowwise_expansion(table, row, mode) for row in rows]
    assert table.expand_rows(rows, mode) == want


@pytest.mark.parametrize("name", TABLE_SCOPED)
def test_every_table_scoped_algorithm_matches_the_oracle(name):
    algorithm = create_algorithm(name)
    for size in range(2, 8):
        table = successor_table(algorithm, size)
        for mode in MODES:
            _assert_matches_oracle(table, range(table.view.count), mode)
    clear_table_caches(algorithm)


def test_seven_mover_rows_match_the_oracle():
    # The rows the old expander sent down its separate seven-mover branch.
    algorithm = create_algorithm("range1:clockwise-drift")
    table = successor_table(algorithm, 7)
    rows = np.nonzero(table.mover_count == 7)[0].tolist()
    assert len(rows) == 1923
    _assert_matches_oracle(table, rows, "ssync")
    clear_table_caches(algorithm)


@pytest.mark.parametrize("name", ["shibata-visibility2", "shibata-visibility2-synth2"])
def test_n8_matches_the_oracle(name):
    assert table_in_scope(8)
    algorithm = create_algorithm(name)
    table = successor_table(algorithm, 8)
    for mode in MODES:
        _assert_matches_oracle(table, range(table.view.count), mode)
    clear_table_caches(algorithm)


def test_unsorted_batch_with_duplicates_and_quiescent_rows():
    algorithm = create_algorithm("shibata-visibility2")
    table = successor_table(algorithm, 7)
    quiescent = np.nonzero(table.mover_count == 0)[0][:5].tolist()
    moving = np.nonzero(table.mover_count >= 3)[0][:40].tolist()
    assert quiescent and moving
    rows = moving[::-1] + quiescent + moving[:7] + quiescent[:2] + [moving[3]] * 3
    for mode in MODES:
        _assert_matches_oracle(table, rows, mode)
    assert table.expand_rows([], "ssync") == []
    assert table.expand_row(moving[0], "ssync") == rowwise_expansion(table, moving[0], "ssync")


def _counter(name):
    return _obs.counter(name).value


def test_derived_lineage_expands_only_dirty_rows():
    overrides, amendments = ruleset_layers(learned_amend_ruleset())
    o1 = dict(sorted(overrides.items())[: len(overrides) // 2])
    a1 = dict(sorted(amendments.items())[: len(amendments) // 2])
    o2 = {k: v for k, v in overrides.items() if k not in o1}
    a2 = {k: v for k, v in amendments.items() if k not in a1}
    base = create_algorithm("shibata-visibility2")
    base_table = successor_table(base, 7)
    rows = range(base_table.view.count)
    _assert_matches_oracle(base_table, rows, "ssync")

    first = base_table.derive(o1, a1)
    second = first.derive(o2, a2)
    assert first is not base_table and second is not first
    moving_dirty = sum(1 for row in second._ssync_dirty if second.mover_count[row] > 0)
    misses = _counter("ssync.expand_cache_misses")
    hits = _counter("ssync.expand_cache_hits")
    _assert_matches_oracle(second, rows, "ssync")
    assert _counter("ssync.expand_cache_misses") - misses == moving_dirty
    moving = int((second.mover_count > 0).sum())
    assert _counter("ssync.expand_cache_hits") - hits == moving - moving_dirty

    composed = OverrideAlgorithm(OverrideAlgorithm(base, o1, amendments=a1), o2, amendments=a2)
    fresh = SuccessorTable.build(composed, 7)
    for mode in MODES:
        assert second.expand_rows(rows, mode) == fresh.expand_rows(rows, mode)
    # The lineage memo still answers the untouched base and the middle table.
    _assert_matches_oracle(base_table, rows, "ssync")
    _assert_matches_oracle(first, rows, "ssync")
    clear_table_caches(base)


def test_sharded_n8_store_matches_the_oracle(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TABLE_CACHE", str(tmp_path))
    monkeypatch.setenv("REPRO_TABLE_SHARD_ROWS", "4096")
    algorithm = create_algorithm("shibata-visibility2")
    sharded = sharded_successor_table(algorithm, 8)
    assert sharded.shards == 5
    rows = np.arange(sharded.view.count)
    for mode in MODES:
        _assert_matches_oracle(sharded, rows, mode)
    clear_table_caches(algorithm)


def test_one_span_per_pass(tmp_path):
    algorithm = create_algorithm("shibata-visibility2")
    table = successor_table(algorithm, 6)
    table._ssync_cache.clear()
    path = str(tmp_path / "trace.jsonl")
    configure_sink(path)
    try:
        expansions = table.expand_rows(range(table.view.count), "ssync")
        table.expand_rows(range(table.view.count), "ssync")  # memo hits: no pass
    finally:
        close_sink()
    with open(path) as handle:
        spans = [r for r in map(json.loads, handle) if r.get("name") == "table.ssync_expand"]
    assert len(spans) == 1
    attrs = spans[0]["attrs"]
    moving = table.mover_count[table.mover_count > 0].astype(np.int64)
    assert attrs["rows"] == len(moving)
    assert attrs["subsets"] == int(((1 << moving) - 1).sum())
    assert attrs["edges"] == sum(len(edges) for edges, _ in expansions)
    clear_table_caches(algorithm)
