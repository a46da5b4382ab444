"""Tests for SCC computation and vertex classification (repro.explore.analyzer)."""
import random

import pytest

from repro.algorithms.visibility2 import ShibataGatheringAlgorithm
from repro.core.runner import run_many
from repro.enumeration.polyhex import enumerate_canonical_node_sets
from repro.explore.analyzer import classify, strongly_connected_components
from repro.explore.transitions import (
    COLLISION_SINK,
    DISCONNECT_SINK,
    TERMINAL_DEADLOCK,
    TERMINAL_GATHERED,
    build_transition_graph,
)

from oracles import graph_from_dicts


def synthetic(edges, terminal, roots, unexplored=frozenset(), mode="ssync"):
    """A hand-built graph over small integer vertex names."""
    return graph_from_dicts(
        algorithm_name="synthetic",
        mode=mode,
        edges={src: tuple((1, dst) for dst in dsts) for src, dsts in edges.items()},
        terminal=dict(terminal),
        roots=tuple(roots),
        unexplored=frozenset(unexplored),
    )


# ----------------------------------------------------------------------- SCC

def test_scc_simple_cycle_and_tail():
    adjacency = {1: (2,), 2: (3,), 3: (1,), 4: (1,)}
    components = {frozenset(c) for c in strongly_connected_components([1, 2, 3, 4], adjacency)}
    assert components == {frozenset({1, 2, 3}), frozenset({4})}


def test_scc_iterative_handles_deep_chains():
    """A chain far deeper than the recursion limit must not blow the stack."""
    n = 50_000
    adjacency = {i: (i + 1,) for i in range(n)}
    adjacency[n] = ()
    components = strongly_connected_components(range(n + 1), adjacency)
    assert len(components) == n + 1


def test_scc_matches_bruteforce_on_random_graphs():
    rng = random.Random(7)
    for _ in range(10):
        n = 30
        adjacency = {
            v: tuple(u for u in range(n) if u != v and rng.random() < 0.08)
            for v in range(n)
        }

        def reachable(start):
            seen = {start}
            frontier = [start]
            while frontier:
                v = frontier.pop()
                for u in adjacency[v]:
                    if u not in seen:
                        seen.add(u)
                        frontier.append(u)
            return seen

        reach = {v: reachable(v) for v in range(n)}
        expected = set()
        for v in range(n):
            expected.add(frozenset(u for u in range(n) if u in reach[v] and v in reach[u]))
        got = {frozenset(c) for c in strongly_connected_components(range(n), adjacency)}
        assert got == expected


# -------------------------------------------------------------- classification

def test_classify_safe_chain():
    graph = synthetic({1: (2,), 2: (3,)}, {3: TERMINAL_GATHERED}, roots=[1])
    cls = classify(graph)
    assert cls.node_class == {1: "safe", 2: "safe", 3: "gathered"}
    assert cls.counts() == {"gathered": 1, "safe": 2}


def test_classify_deadlock_reachability():
    graph = synthetic({1: (2,)}, {2: TERMINAL_DEADLOCK}, roots=[1])
    cls = classify(graph)
    assert cls.node_class == {1: "deadlock", 2: "deadlock"}


def test_classify_livelock_cycle_and_feeder():
    graph = synthetic({1: (2,), 2: (3,), 3: (2,)}, {}, roots=[1])
    cls = classify(graph)
    assert cls.cyclic_nodes == {2, 3}
    assert cls.node_class == {1: "livelock", 2: "livelock", 3: "livelock"}


def test_classify_self_loop_is_livelock():
    graph = synthetic({1: (1,)}, {}, roots=[1])
    cls = classify(graph)
    assert cls.cyclic_nodes == {1}
    assert cls.node_class[1] == "livelock"


def test_classify_sink_edges():
    graph = graph_from_dicts(
        algorithm_name="synthetic",
        mode="ssync",
        edges={1: ((1, COLLISION_SINK), (2, 2)), 2: ((1, DISCONNECT_SINK),)},
        terminal={},
        roots=(1,),
    )
    cls = classify(graph)
    # 1 can reach both a collision (directly) and a disconnection (via 2):
    # collision outranks disconnection.
    assert cls.node_class[1] == "collision"
    assert cls.node_class[2] == "disconnected"
    assert 1 in cls.can_reach["disconnected"]


def test_classify_severity_priority_collision_over_deadlock():
    graph = graph_from_dicts(
        algorithm_name="synthetic",
        mode="ssync",
        edges={1: ((1, 2), (2, 3)), 3: ((1, COLLISION_SINK),)},
        terminal={2: TERMINAL_DEADLOCK},
        roots=(1,),
    )
    cls = classify(graph)
    assert 1 in cls.can_reach["deadlock"]
    assert 1 in cls.can_reach["collision"]
    assert cls.node_class[1] == "collision"


def test_classify_truncated_graph_reports_unknown():
    graph = synthetic({1: (2,)}, {}, roots=[1], unexplored=[2])
    cls = classify(graph)
    assert cls.truncated
    assert cls.node_class == {1: "unknown", 2: "unknown"}


def test_classify_gathered_unreachable_by_failure_flags():
    """A gathered terminal never carries a failure flag."""
    graph = synthetic({1: (2,)}, {2: TERMINAL_GATHERED}, roots=[1])
    cls = classify(graph)
    assert 2 in cls.can_gather
    assert 1 in cls.can_gather
    for flagged in cls.can_reach.values():
        assert 2 not in flagged


# ---------------------------------------------- agreement with the engine

@pytest.mark.parametrize("size", [4, 5])
def test_fsync_classification_agrees_with_engine_per_root(size):
    """Under FSYNC the class of every root equals the engine's run outcome."""
    algorithm = ShibataGatheringAlgorithm()
    roots = enumerate_canonical_node_sets(size)
    graph = build_transition_graph(roots, algorithm=algorithm, mode="fsync")
    cls = classify(graph)
    batch = run_many(roots, algorithm=algorithm, max_rounds=500)
    fold = {"gathered": "gathered", "safe": "gathered"}
    for packed, result in zip(graph.roots, batch.results):
        explorer_class = cls.node_class[packed]
        assert fold.get(explorer_class, explorer_class) == result.outcome.value


def test_safe_vertices_can_always_gather():
    """Classification invariant: a safe vertex reaches a gathered terminal."""
    algorithm = ShibataGatheringAlgorithm()
    roots = enumerate_canonical_node_sets(5)
    graph = build_transition_graph(roots, algorithm=algorithm, mode="ssync")
    cls = classify(graph)
    for packed, node_class in cls.node_class.items():
        if node_class == "safe":
            assert packed in cls.can_gather


@pytest.mark.parametrize("kernel", ["packed", "table"])
@pytest.mark.parametrize("mode", ["fsync", "ssync"])
def test_counts_of_the_graph_roots_match_root_counts(kernel, mode):
    graph = build_transition_graph(
        enumerate_canonical_node_sets(6),
        algorithm=ShibataGatheringAlgorithm(),
        mode=mode,
        kernel=kernel,
    )
    classification = classify(graph)
    expected = classification.root_counts()
    assert sum(expected.values()) == len(graph.roots)
    assert classification.counts(graph.roots) == expected
    assert classification.counts(list(graph.roots)) == expected
