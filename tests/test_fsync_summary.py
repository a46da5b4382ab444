"""The pointer-doubling FSYNC summary against the per-row walk it replaced.

:meth:`repro.core.table_kernel.SuccessorTable.fsync_summary` resolves every
row of a table in one array pass; ``tests/oracles.lazy_fsync_summary`` is the
memoized per-row walk.  Both must agree byte for byte — outcome, rounds,
moves and settling row, dtypes included — on every registered table-scoped
algorithm, on delta-derived tables, on the sharded tier and on hand-built
functional graphs that isolate each case of the pass (self-loops,
multi-entry cycles, tails into a disconnect, tables without step rows).
"""
import json
from types import SimpleNamespace

import pytest

np = pytest.importorskip("numpy")  # the table kernel is numpy-optional

from repro.algorithms import create_algorithm
from repro.algorithms.registry import available_algorithms
from repro.core.runner import execute_configuration
from repro.core.sharded_tables import sharded_successor_table
from repro.core.table_kernel import (
    KIND_COLLISION,
    KIND_DEADLOCK,
    KIND_DISCONNECT,
    KIND_GATHERED,
    KIND_STEP,
    OUT_COLLISION,
    OUT_DEADLOCK,
    OUT_DISCONNECTED,
    OUT_GATHERED,
    OUT_LIVELOCK,
    SuccessorTable,
    successor_table,
    view_in_scope,
)
from repro.core.trace import Outcome
from repro.grid.directions import Direction
from repro.obs import close_sink, configure_sink
from repro.synth.ruleset import learned_amend_ruleset, ruleset_layers

from oracles import lazy_fsync_summary

_FIELDS = ("outcome", "rounds", "moves", "final")


def _table_scoped_algorithms():
    names = []
    for name in available_algorithms():
        algorithm = create_algorithm(name)
        if getattr(algorithm, "deterministic", True) and view_in_scope(
            algorithm.visibility_range
        ):
            names.append(name)
    return names


def _assert_matches_oracle(table):
    summary = table.fsync_summary()
    oracle = lazy_fsync_summary(table, range(table.view.count))
    for field in _FIELDS:
        ours, theirs = getattr(summary, field), getattr(oracle, field)
        assert ours.dtype == theirs.dtype, field
        assert np.array_equal(ours, theirs), field
    return summary


@pytest.mark.parametrize("name", _table_scoped_algorithms())
def test_summary_matches_oracle_on_every_registered_algorithm(name):
    algorithm = create_algorithm(name)
    for size in (5, 6, 7):
        _assert_matches_oracle(successor_table(algorithm, size))


def test_scoped_algorithms_include_livelocks():
    """The registered set exercises the cycle pass, not just tails."""
    table = successor_table(create_algorithm("naive-east"), 7)
    assert (table.fsync_summary().outcome == OUT_LIVELOCK).any()


def test_summary_matches_oracle_on_derived_tables():
    """Delta-derived tables, layered the way the CEGIS loop layers them."""
    base = successor_table(create_algorithm("shibata-visibility2"), 7)
    overrides, amendments = ruleset_layers(learned_amend_ruleset())
    derived = base.derive(overrides, amendments)
    assert derived is not base
    _assert_matches_oracle(derived)
    # A second delta on top: force a handful of views to drift east.
    drift = {int(view): Direction.E for view in derived.view.unique_views[:40]}
    _assert_matches_oracle(derived.derive({}, drift))


def test_summary_matches_oracle_on_the_sharded_tier(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TABLE_SHARD_ROWS", "4096")
    table = sharded_successor_table(
        create_algorithm("shibata-visibility2"), 8, cache_dir=str(tmp_path)
    )
    assert table.shards == 5
    _assert_matches_oracle(table)


# ---------------------------------------------------------------------------
# Hand-built functional graphs.
# ---------------------------------------------------------------------------

def _hand_built(kind, succ, mover_count, collision_code=None):
    count = len(kind)
    return SuccessorTable(
        view=SimpleNamespace(count=count),  # type: ignore[arg-type]
        codes=np.zeros(1, dtype=np.int8),
        move_code=np.ones((count, 1), dtype=np.int8),
        mover_bits=np.ones(count, dtype=np.int16),
        mover_count=np.array(mover_count, dtype=np.int16),
        kind=np.array(kind, dtype=np.int8),
        succ=np.array(succ, dtype=np.int32),
        collision_code=np.array(collision_code or [0] * count, dtype=np.int8),
    )


def _columns(summary):
    return tuple(getattr(summary, field).tolist() for field in _FIELDS)


def test_one_row_self_loop():
    table = _hand_built([KIND_STEP], [0], [3])
    summary = _assert_matches_oracle(table)
    assert _columns(summary) == ([OUT_LIVELOCK], [1], [3], [0])


def test_two_cycle_with_two_entry_tails():
    # 0 <-> 1 is the cycle; 2 -> 3 -> 0 enters at 0, 4 -> 1 enters at 1.
    table = _hand_built([KIND_STEP] * 5, [1, 0, 3, 0, 1], [1, 2, 3, 4, 5])
    summary = _assert_matches_oracle(table)
    assert _columns(summary) == (
        [OUT_LIVELOCK] * 5,
        [2, 2, 4, 3, 3],
        [3, 3, 10, 7, 8],
        [0, 1, 0, 0, 1],
    )


def test_tail_into_a_disconnect():
    # 0 -> 1 -> 2, and row 2's round disconnects the swarm.
    table = _hand_built([KIND_STEP, KIND_STEP, KIND_DISCONNECT], [1, 2, -1], [1, 2, 4])
    summary = _assert_matches_oracle(table)
    assert _columns(summary) == (
        [OUT_DISCONNECTED] * 3,
        [3, 2, 1],  # distance to the disconnect row + its own round
        [7, 6, 4],
        [2, 2, 2],
    )


def test_table_without_step_rows():
    kinds = [KIND_GATHERED, KIND_DEADLOCK, KIND_COLLISION, KIND_DISCONNECT]
    table = _hand_built(kinds, [-1] * 4, [0, 0, 2, 3], collision_code=[0, 0, 1, 0])
    summary = _assert_matches_oracle(table)
    assert _columns(summary) == (
        [OUT_GATHERED, OUT_DEADLOCK, OUT_COLLISION, OUT_DISCONNECTED],
        [0, 0, 0, 1],
        [0, 0, 0, 3],
        [0, 1, 2, 3],
    )


def test_summary_records_one_span(tmp_path):
    table = _hand_built([KIND_STEP] * 5, [1, 0, 3, 0, 1], [1, 2, 3, 4, 5])
    path = str(tmp_path / "trace.jsonl")
    configure_sink(path)
    try:
        table.fsync_summary()
        table.fsync_summary()  # memoized: no second resolution
    finally:
        close_sink()
    with open(path) as handle:
        spans = [json.loads(line) for line in handle]
    (record,) = [r for r in spans if r["name"] == "table.fsync_summary"]
    assert record["attrs"]["rows"] == 5
    assert record["attrs"]["doublings"] >= 3  # ceil(log2 5)


# ---------------------------------------------------------------------------
# Round-limit capping.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["shibata-visibility2", "naive-east"])
def test_batch_outcomes_caps_small_round_budgets(name):
    """Tiny budgets cap tails and cycles mid-walk (``_prefix_moves``)."""
    algorithm = create_algorithm(name)
    table = successor_table(algorithm, 6)
    rows = np.arange(table.view.count, dtype=np.int32)
    nodes = [
        tuple((int(q), int(r)) for q, r in table.view.positions[row]) for row in rows
    ]
    for budget in (1, 2, 3, 5):
        outcomes, rounds, moves, kinds = table.batch_outcomes(rows, budget)
        assert Outcome.ROUND_LIMIT in outcomes
        for i, root in enumerate(nodes):
            packed = execute_configuration(root, algorithm, max_rounds=budget, kernel="packed")
            assert (outcomes[i], int(rounds[i]), int(moves[i]), kinds[i]) == (
                packed.outcome,
                packed.rounds,
                packed.total_moves,
                packed.collision_kind,
            ), (name, budget, root)
