"""Kahn peeling and the array classifier against the dict classifier.

:func:`repro.explore.analyzer.classify` finds livelocks by peeling: a vertex
can reach a cycle exactly when it survives repeated removal of the vertices
left with no successor, and Tarjan then runs only on the survivors.  No
pinned census has a livelock vertex, so these tests feed it graphs that do:
hypothesis-generated graphs with cycles, self-loops, sinks and unexplored
vertices, and two real n=5 table-kernel graphs.  The oracle is
:func:`oracles.reference_classify`: Tarjan over every vertex and set-based
backward closures.
"""
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import create_algorithm
from repro.enumeration.polyhex import enumerate_canonical_node_sets
from repro.explore.analyzer import classify
from repro.explore.transitions import (
    COLLISION_SINK,
    DISCONNECT_SINK,
    TERMINAL_DEADLOCK,
    TERMINAL_GATHERED,
    build_transition_graph,
)

from oracles import graph_from_dicts, reference_classify

KINDS = ("edges", "edges", "edges", "edges", "gathered", "deadlock", "unexplored")


@st.composite
def graphs(draw):
    count = draw(st.integers(min_value=1, max_value=24))
    names = [1000 + 7 * i for i in range(count)]
    targets = st.sampled_from(names + [COLLISION_SINK, DISCONNECT_SINK])
    edges, terminal, unexplored = {}, {}, []
    for name in names:
        kind = draw(st.sampled_from(KINDS))
        if kind == "edges":
            destinations = draw(st.lists(targets, min_size=1, max_size=4, unique=True))
            edges[name] = tuple((1 << i, d) for i, d in enumerate(destinations))
        elif kind == "unexplored":
            unexplored.append(name)
        else:
            terminal[name] = TERMINAL_GATHERED if kind == "gathered" else TERMINAL_DEADLOCK
    roots = draw(st.lists(st.sampled_from(names), min_size=1, max_size=count))
    return graph_from_dicts(
        algorithm_name="synthetic",
        mode=draw(st.sampled_from(["fsync", "ssync"])),
        edges=edges,
        terminal=terminal,
        roots=tuple(roots),
        unexplored=frozenset(unexplored),
    )


def _assert_agree(graph):
    got, want = classify(graph), reference_classify(graph)
    assert list(got.node_class.items()) == list(want.node_class.items())
    assert got.can_reach == want.can_reach
    assert got.can_gather == want.can_gather
    assert got.cyclic_nodes == want.cyclic_nodes
    assert got.counts() == dict(Counter(want.node_class.values()))
    return got


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_peeling_matches_tarjan_on_synthetic_graphs(graph):
    _assert_agree(graph)


@pytest.mark.parametrize(
    "name, mode, livelock_roots, cyclic",
    [("naive-east", "fsync", 38, 6), ("range1:centroid-pull", "ssync", 12, 72)],
)
def test_peeling_matches_tarjan_on_livelocking_graphs(name, mode, livelock_roots, cyclic):
    graph = build_transition_graph(
        enumerate_canonical_node_sets(5),
        algorithm=create_algorithm(name),
        mode=mode,
        kernel="table",
    )
    got = _assert_agree(graph)
    assert got.root_counts()["livelock"] == livelock_roots
    assert got.counts(graph.roots) == got.root_counts()
    assert len(got.cyclic_nodes) == cyclic
