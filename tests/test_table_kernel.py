"""Byte-identity of the successor-table kernel against the packed kernel.

The table kernel (:mod:`repro.core.table_kernel`) is a pure optimization: for
every query — batch sweeps, single traces, transition graphs, synthesis
verdicts — its answers must be byte-identical to the packed kernel's.  These
tests pin that over the *full* 3652-root state space for all three registered
shibata variants, under FSYNC and a seeded random-subset SSYNC schedule, plus
the delta-aware derivation the CEGIS loop relies on.
"""
import pytest

np = pytest.importorskip("numpy")  # the table kernel is numpy-optional

from repro.algorithms import create_algorithm
from repro.analysis.census_pins import PINNED_CENSUS, pinned_census
from repro.core.configuration import Configuration
from repro.core.engine import default_kernel, run_execution
from repro.core.runner import run_many
from repro.core.scheduler import scheduler_from_spec
from repro.core.table_kernel import (
    SuccessorTable,
    max_table_size,
    successor_table,
    view_table,
)
from repro.enumeration.polyhex import enumerate_connected_configurations
from repro.explore import explore
from repro.synth.cegis import _counterexamples_by_mass, _won_roots, synthesize
from repro.synth.ruleset import OverrideAlgorithm, learned_amend_ruleset, ruleset_layers
from repro.synth.search import simulate_outcome

SHIBATA_VARIANTS = (
    "shibata-visibility2",
    "shibata-visibility2-synth",
    "shibata-visibility2-synth2",
)


@pytest.fixture(scope="module")
def all_roots():
    return enumerate_connected_configurations(7)


# ---------------------------------------------------------------------------
# Batch sweeps: full state space, every registered shibata variant.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", SHIBATA_VARIANTS)
def test_fsync_sweep_byte_identical(name, all_roots):
    packed = run_many(all_roots, algorithm=create_algorithm(name),
                      max_rounds=600, kernel="packed")
    table = run_many(all_roots, algorithm=create_algorithm(name),
                     max_rounds=600, kernel="table")
    assert table.results == packed.results


@pytest.mark.parametrize("name", SHIBATA_VARIANTS)
def test_random_subset_sweep_byte_identical(name, all_roots):
    spec = "random-subset:0.5:11"
    packed = run_many(all_roots, algorithm=create_algorithm(name),
                      scheduler=scheduler_from_spec(spec), max_rounds=100,
                      kernel="packed")
    table = run_many(all_roots, algorithm=create_algorithm(name),
                     scheduler=scheduler_from_spec(spec), max_rounds=100,
                     kernel="table")
    assert table.results == packed.results


def test_round_limit_capping_byte_identical(all_roots):
    """Tiny round budgets exercise every outcome-capping branch."""
    sample = all_roots[::13]
    for budget in (1, 2, 5):
        packed = run_many(sample, algorithm=create_algorithm("shibata-visibility2"),
                          max_rounds=budget, kernel="packed")
        table = run_many(sample, algorithm=create_algorithm("shibata-visibility2"),
                         max_rounds=budget, kernel="table")
        assert table.results == packed.results


# ---------------------------------------------------------------------------
# Single traces: final configurations and per-round records.
# ---------------------------------------------------------------------------

def _trace_tuple(trace):
    return (
        trace.outcome,
        trace.termination_round,
        trace.total_moves,
        trace.collision_kind,
        trace.cycle_start,
        trace.final,
        [
            (r.index, r.configuration, r.moves, r.activated)
            for r in trace.rounds
        ],
    )


@pytest.mark.parametrize("scheduler_spec", [None, "random-subset:0.7:3"])
def test_traces_byte_identical(all_roots, scheduler_spec):
    algorithm_packed = create_algorithm("shibata-visibility2")
    algorithm_table = create_algorithm("shibata-visibility2")
    for configuration in all_roots[::37]:
        packed = run_execution(
            configuration, algorithm_packed,
            scheduler=scheduler_from_spec(scheduler_spec),
            max_rounds=300, kernel="packed",
        )
        table = run_execution(
            configuration, algorithm_table,
            scheduler=scheduler_from_spec(scheduler_spec),
            max_rounds=300, kernel="table",
        )
        assert _trace_tuple(table) == _trace_tuple(packed)


def test_translated_initial_keeps_absolute_coordinates():
    """The table walks canonical rows but must report absolute positions."""
    configuration = Configuration([(10 + i, -4) for i in range(7)])
    packed = run_execution(configuration, create_algorithm("shibata-visibility2"),
                           max_rounds=300, kernel="packed")
    table = run_execution(configuration, create_algorithm("shibata-visibility2"),
                          max_rounds=300, kernel="table")
    assert table.final == packed.final
    assert _trace_tuple(table) == _trace_tuple(packed)


def test_disconnected_initial_falls_back_to_packed():
    configuration = Configuration([(0, 0), (5, 5), (10, 10), (0, 5), (5, 0), (12, 0), (0, 12)])
    packed = run_execution(configuration, create_algorithm("shibata-visibility2"),
                           max_rounds=50, kernel="packed")
    table = run_execution(configuration, create_algorithm("shibata-visibility2"),
                          max_rounds=50, kernel="table")
    assert _trace_tuple(table) == _trace_tuple(packed)


def test_small_sizes_byte_identical():
    for size in (2, 3, 4, 5):
        roots = enumerate_connected_configurations(size)
        packed = run_many(roots, algorithm=create_algorithm("shibata-visibility2"),
                          max_rounds=200, kernel="packed")
        table = run_many(roots, algorithm=create_algorithm("shibata-visibility2"),
                         max_rounds=200, kernel="table")
        assert table.results == packed.results


# ---------------------------------------------------------------------------
# Explorer graphs and censuses.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["fsync", "ssync"])
def test_transition_graph_byte_identical(mode):
    packed = explore(algorithm=create_algorithm("shibata-visibility2"), mode=mode,
                     with_witnesses=False)
    table = explore(algorithm=create_algorithm("shibata-visibility2"), mode=mode,
                    with_witnesses=False, kernel="table")
    assert table.graph.edges == packed.graph.edges
    assert table.graph.terminal == packed.graph.terminal
    assert table.graph.roots == packed.graph.roots
    assert table.root_census == packed.root_census
    assert table.node_census == packed.node_census


@pytest.mark.parametrize("name,mode", sorted(PINNED_CENSUS))
def test_table_explorer_reproduces_every_pinned_census(name, mode):
    """The acceptance gate: table censuses equal the pinned claims exactly."""
    report = explore(algorithm_name=name, mode=mode, with_witnesses=False,
                     kernel="table")
    assert report.root_census == pinned_census(name, mode)


# ---------------------------------------------------------------------------
# Delta-aware derivation (the CEGIS fast path).
# ---------------------------------------------------------------------------

def _learned_layers():
    overrides, amendments = ruleset_layers(learned_amend_ruleset())
    return overrides, amendments


def test_derive_matches_full_build():
    """Deriving base+overlay recomputes exactly what a full build computes."""
    overrides, amendments = _learned_layers()
    base = create_algorithm("shibata-visibility2")
    derived = successor_table(base, 7).derive(overrides, amendments)
    full = SuccessorTable.build(
        OverrideAlgorithm(create_algorithm("shibata-visibility2"), overrides,
                          amendments=amendments),
        7,
    )
    assert np.array_equal(derived.move_code, full.move_code)
    assert np.array_equal(derived.kind, full.kind)
    assert np.array_equal(derived.succ, full.succ)
    assert np.array_equal(derived.mover_bits, full.mover_bits)
    assert np.array_equal(derived.collision_code, full.collision_code)


def test_override_algorithm_table_is_derived_from_base():
    """The ``table_kernel_layers`` protocol shares the base's table build."""
    base = create_algorithm("shibata-visibility2")
    base_table = successor_table(base, 7)
    overrides, amendments = _learned_layers()
    composed = OverrideAlgorithm(base, overrides, amendments=amendments)
    derived = successor_table(composed, 7)
    assert derived.view is base_table.view
    assert successor_table(composed, 7) is derived  # memoized on the instance


def test_walk_outcome_matches_simulate_outcome():
    overrides, amendments = _learned_layers()
    base = create_algorithm("shibata-visibility2")
    base_table = successor_table(base, 7)
    derived = base_table.derive(overrides, amendments)
    reference = OverrideAlgorithm(create_algorithm("shibata-visibility2"),
                                  overrides, amendments=amendments)
    packed_index = base_table.view.packed_index
    for row in range(0, base_table.view.count, 41):
        packed = base_table.view.packed[row]
        assert derived.walk_outcome(row, 300) == simulate_outcome(packed, reference)
    assert len(packed_index) == base_table.view.count


def test_empty_derive_returns_same_table():
    base = create_algorithm("shibata-visibility2")
    table = successor_table(base, 7)
    assert table.derive({}, {}) is table


def test_fsync_verdict_matches_explorer():
    """The graph-free CEGIS verdict answers exactly like a full exploration."""
    for name in ("shibata-visibility2", "shibata-visibility2[minus-R3c]"):
        table = successor_table(create_algorithm(name), 7)
        verdict = table.fsync_verdict(np.arange(table.view.count, dtype=np.int32))
        report = explore(algorithm=create_algorithm(name), mode="fsync",
                         with_witnesses=False)
        assert verdict.root_census == report.root_census
        assert verdict.won_roots() == _won_roots(report)
        for include_failures in (False, True):
            assert verdict.counterexamples_by_mass(include_failures) == \
                _counterexamples_by_mass(report.graph, include_failures)


def test_counterexample_attribution_matches_walker_on_multi_entry_cycles():
    """Two roots entering one livelock cycle at different nodes must both
    attribute to the first-resolved entry point, exactly like the graph
    walker's ``settles_in`` memoization — not each to its own entry."""
    from repro.core.table_kernel import KIND_STEP, TableFsyncVerdict
    from repro.explore.transitions import TransitionGraph

    # Functional graph: 0 -> 1, 3 -> 2, and the cycle 1 <-> 2.
    class _StubView:
        count = 4
        packed = [100, 101, 102, 103]

    table = SuccessorTable(
        view=_StubView(),
        codes=np.zeros(1, dtype=np.int8),
        move_code=np.ones((4, 1), dtype=np.int8),
        mover_bits=np.ones(4, dtype=np.int16),
        mover_count=np.ones(4, dtype=np.int16),
        kind=np.full(4, KIND_STEP, dtype=np.int8),
        succ=np.array([1, 2, 1, 2], dtype=np.int32),
        collision_code=np.zeros(4, dtype=np.int8),
    )
    graph = TransitionGraph(
        algorithm_name="stub",
        mode="fsync",
        edges={100: ((1, 101),), 101: ((1, 102),), 102: ((1, 101),), 103: ((1, 102),)},
        terminal={},
        roots=(100, 103),
    )
    verdict = TableFsyncVerdict(table, np.array([0, 3], dtype=np.int32))
    for include_failures in (False, True):
        assert verdict.counterexamples_by_mass(include_failures) == \
            _counterexamples_by_mass(graph, include_failures)
    # Both roots settle in root 0's cycle entry (vertex 101), mass 2.
    assert verdict.counterexamples_by_mass(True) == [101]


def test_synthesize_kernel_equivalence_small():
    """The whole CEGIS trajectory is kernel-independent (size-5 universe)."""
    kwargs = dict(
        base_name="shibata-visibility2[minus-R3c]",
        size=5,
        max_iterations=2,
        chain_budget=100,
        max_depth=12,
        branch=4,
    )
    packed = synthesize(kernel="packed", **kwargs)
    table = synthesize(kernel="table", **kwargs)
    assert packed.ruleset.to_dict() == table.ruleset.to_dict()
    assert packed.base_census == table.base_census
    assert packed.final_census == table.final_census
    assert packed.ssync_census == table.ssync_census
    assert packed.blocked == table.blocked
    strip = lambda record: (record.index, record.counterexamples, record.proposed,
                            record.committed, record.expansions, record.explores,
                            record.census)
    assert [strip(r) for r in packed.iterations] == [strip(r) for r in table.iterations]


# ---------------------------------------------------------------------------
# Guard rails.
# ---------------------------------------------------------------------------

def test_default_kernel_prefers_table():
    assert default_kernel() == "table"  # numpy is baked into the image


def test_view_table_rejects_oversized_spaces():
    with pytest.raises(ValueError):
        view_table(max_table_size() + 1, 2)


def test_explorer_table_kernel_requires_connectivity():
    from repro.explore.transitions import build_transition_graph

    with pytest.raises(ValueError):
        build_transition_graph(
            enumerate_connected_configurations(4),
            algorithm=create_algorithm("shibata-visibility2"),
            require_connectivity=False,
            kernel="table",
        )


def test_views_wider_than_the_view_column_fall_back_to_packed(tmp_path):
    """Range-6 views (126 bits) cannot be tabulated: the table kernel must
    decline them up front and answer through the packed fallback."""
    from repro.core.sharded_tables import build_sharded_table
    from repro.core.table_kernel import scoped_table
    from repro.explore.transitions import build_transition_graph

    name = "full-visibility-greedy"
    assert scoped_table(create_algorithm(name), 5) is None
    with pytest.raises(ValueError, match="visibility range 6"):
        SuccessorTable.build(create_algorithm(name), 5)
    with pytest.raises(ValueError, match="visibility range 6"):
        build_sharded_table(create_algorithm(name), 5, str(tmp_path / "store"))

    roots = enumerate_connected_configurations(5)
    packed = run_many(roots, algorithm_name=name, kernel="packed")
    table = run_many(roots, algorithm_name=name, kernel="table")
    assert table.results == packed.results
    graphs = [
        build_transition_graph(roots, algorithm=create_algorithm(name), kernel=kernel)
        for kernel in ("packed", "table")
    ]
    assert graphs[1].edges == graphs[0].edges
    assert graphs[1].terminal == graphs[0].terminal
    assert graphs[1].roots == graphs[0].roots
