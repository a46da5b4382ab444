"""Tests for witness extraction and replay (repro.explore.witness)."""
import pytest

from repro.algorithms.visibility2 import ShibataGatheringAlgorithm
from repro.core.algorithm import FunctionAlgorithm
from repro.core.configuration import Configuration
from repro.core.engine import run_execution
from repro.core.trace import Outcome
from repro.explore import (
    build_transition_graph,
    classify,
    explore,
    find_witnesses,
    replay_witness,
)
from repro.grid.directions import Direction
from repro.viz.ascii_art import render_witness

from oracles import dict_graph


@pytest.fixture(scope="module")
def shibata_ssync_report():
    return explore(algorithm_name="shibata-visibility2", size=5, mode="ssync")


def test_witnesses_exist_for_each_failing_root_class(shibata_ssync_report):
    report = shibata_ssync_report
    failing = set(report.root_census) - {"gathered", "safe"}
    assert failing <= set(report.witnesses)


def test_witnesses_replay_through_the_engine(shibata_ssync_report):
    algorithm = ShibataGatheringAlgorithm()
    for witness in shibata_ssync_report.witnesses.values():
        final = replay_witness(witness, algorithm)
        assert final == witness.final


def test_witness_steps_carry_consistent_moves(shibata_ssync_report):
    for witness in shibata_ssync_report.witnesses.values():
        for step in witness.steps:
            assert set(step.activated) == {pos for pos, _ in step.moves}
            assert set(step.activated) <= set(step.configuration)


def test_deadlock_witness_ends_quiescent(shibata_ssync_report):
    witness = shibata_ssync_report.witnesses.get("deadlock")
    if witness is None:
        pytest.skip("no deadlock class at this size")
    trace = run_execution(
        Configuration(witness.final), ShibataGatheringAlgorithm(), max_rounds=1
    )
    assert trace.outcome is Outcome.DEADLOCK


def test_disconnected_witness_final_is_disconnected(shibata_ssync_report):
    witness = shibata_ssync_report.witnesses.get("disconnected")
    if witness is None:
        pytest.skip("no disconnected class at this size")
    assert not Configuration(witness.final).is_connected()


def test_witness_minimality_deadlock(shibata_ssync_report):
    """No shorter schedule reaches the witnessed failure (BFS shortest path)."""
    report = shibata_ssync_report
    witness = report.witnesses["deadlock"]
    # Breadth-first distances from all roots to the nearest deadlock terminal.
    graph = dict_graph(report.graph)
    distance = {root: 0 for root in graph.roots}
    frontier = list(graph.roots)
    best = None
    while frontier and best is None:
        next_frontier = []
        for vertex in frontier:
            if graph.terminal.get(vertex) == "deadlock":
                best = distance[vertex]
                break
            for _, destination in graph.successors(vertex):
                if destination >= 0 and destination not in distance:
                    distance[destination] = distance[vertex] + 1
                    next_frontier.append(destination)
        frontier = next_frontier
    assert witness.num_rounds == best


def test_livelock_witness_cycles():
    """An oscillating rule produces a livelock witness whose cycle replays."""

    def oscillate(view):
        # {(0,0),(1,0),(2,0)} <-> {(0,0),(1,0),(1,1)}: the east-end robot of
        # the line hops NW, then (seeing the L-shape) hops SE back.  Both
        # configurations stay connected and neither is gathered, so the
        # transition graph is a genuine 2-cycle.
        offsets = view.occupied_offsets
        if offsets == {(-1, 0), (-2, 0)}:
            return Direction.NW
        if offsets == {(-1, -1), (0, -1)}:
            return Direction.SE
        return None

    algo = FunctionAlgorithm(oscillate, visibility_range=2, name="oscillate")
    roots = [((0, 0), (1, 0), (2, 0))]
    graph = build_transition_graph(roots, algorithm=algo, mode="ssync")
    cls = classify(graph)
    assert cls.cyclic_nodes
    witnesses = find_witnesses(graph, cls, algorithm=algo)
    witness = witnesses["livelock"]
    assert witness.cycle_start is not None
    assert witness.num_rounds > witness.cycle_start
    replay_witness(witness, algo)
    # The final configuration is a translate of the cycle-start configuration.
    from repro.grid.packing import pack_nodes

    start_config = (
        witness.steps[witness.cycle_start].configuration
        if witness.cycle_start < len(witness.steps)
        else witness.final
    )
    assert pack_nodes(witness.final) == pack_nodes(start_config)


def test_replay_rejects_tampered_witness(shibata_ssync_report):
    witness = next(
        (w for w in shibata_ssync_report.witnesses.values() if w.steps), None
    )
    if witness is None:
        pytest.skip("no multi-round witness at this size")
    tampered_final = tuple((q + 1, r) for q, r in witness.final[:-1]) + (
        (99, 99),
    )
    tampered = type(witness)(
        kind=witness.kind,
        algorithm_name=witness.algorithm_name,
        mode=witness.mode,
        steps=witness.steps,
        final=tampered_final,
        cycle_start=witness.cycle_start,
        collision_kind=witness.collision_kind,
    )
    with pytest.raises(ValueError):
        replay_witness(tampered, ShibataGatheringAlgorithm())


def test_render_witness_output(shibata_ssync_report):
    for kind, witness in shibata_ssync_report.witnesses.items():
        text = render_witness(witness, unicode_symbols=False)
        assert f"outcome: {kind}" in text
        if witness.steps:
            assert "round 0" in text
        # ASCII mode stays ASCII.
        text.encode("ascii")
