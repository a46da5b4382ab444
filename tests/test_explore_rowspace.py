"""The explorer's row-space BFS and array graph, pinned to the dict oracles.

:func:`repro.explore.transitions.build_transition_graph` numbers vertices in
discovery order and stores the graph as CSR arrays.  These tests hold that
order, and with it ``max_nodes`` truncation, to the packed-integer BFS of
:func:`oracles.reference_exploration` under both kernels, and hold
``ViewTable.packed`` to ``pack_nodes`` row for row.
"""
import random

import pytest

np = pytest.importorskip("numpy")

from repro.algorithms.registry import create_algorithm
from repro.core.configuration import Configuration
from repro.core.table_kernel import KIND_DEADLOCK, KIND_GATHERED, KIND_STEP, view_table
from repro.enumeration.polyhex import canonical_shapes, enumerate_canonical_node_sets
from repro.explore import explore
from repro.explore.analyzer import classify
from repro.explore.transitions import (
    STATE_DEADLOCK,
    STATE_EDGES,
    STATE_GATHERED,
    build_transition_graph,
)
from repro.grid.packing import pack_nodes

from oracles import dict_graph, reference_classify, reference_exploration, won_roots

BUDGETS = (1, 50, 500, 2000)
MODES = ("fsync", "ssync")


@pytest.fixture(scope="module")
def algorithm():
    return create_algorithm("shibata-visibility2")


def _assert_same_graph(graph, oracle):
    # Dict order is discovery order: compare it too, not just the contents.
    views = dict_graph(graph)
    assert list(views.edges.items()) == list(oracle.edges.items())
    assert list(views.terminal.items()) == list(oracle.terminal.items())
    assert graph.roots == oracle.roots
    assert views.unexplored == oracle.unexplored  # in discovery order
    assert graph.truncated == oracle.truncated
    assert graph.num_nodes == oracle.num_nodes
    assert graph.num_edges == oracle.num_edges
    packed = graph.vertex_packed()
    assert [packed[v] for v in graph.node_order().tolist()] == oracle.nodes()


def _assert_same_verdicts(graph, oracle):
    got, want = classify(graph), reference_classify(oracle)
    assert list(got.node_class.items()) == list(want.node_class.items())
    assert got.can_reach == want.can_reach
    assert got.can_gather == want.can_gather
    assert got.cyclic_nodes == want.cyclic_nodes


@pytest.mark.parametrize("size", range(1, 9))
def test_view_table_packed_matches_pack_nodes(size):
    assert view_table(size).packed == [pack_nodes(shape) for shape in canonical_shapes(size)]


def test_row_kinds_are_vertex_states():
    assert (KIND_STEP, KIND_GATHERED, KIND_DEADLOCK) == (
        STATE_EDGES, STATE_GATHERED, STATE_DEADLOCK,
    )


@pytest.mark.parametrize("size", [6, 7])
@pytest.mark.parametrize("mode", MODES)
def test_truncated_graphs_are_byte_identical(algorithm, size, mode):
    roots = enumerate_canonical_node_sets(size)
    for max_nodes in BUDGETS:
        oracle = reference_exploration(roots, algorithm, mode, max_nodes)
        for kernel in ("table", "packed"):
            graph = build_transition_graph(
                roots, algorithm=algorithm, mode=mode, max_nodes=max_nodes, kernel=kernel
            )
            _assert_same_graph(graph, oracle)
            _assert_same_verdicts(graph, oracle)


def _sparse_roots():
    """Few, shuffled, duplicated roots of two sizes, one of them disconnected.

    The BFS then discovers most vertices itself, level by level, across two
    tables and the packed fallback of the disconnected root.
    """
    rng = random.Random(22)
    roots = rng.sample(enumerate_canonical_node_sets(7), 12)
    roots += rng.sample(enumerate_canonical_node_sets(6), 5)
    roots += [Configuration(roots[3]), roots[0], tuple(reversed(roots[7]))]
    roots.append(((0, 0), (1, 0), (2, 0), (10, 0), (11, 0), (12, 0), (13, 0)))
    rng.shuffle(roots)
    return roots


@pytest.mark.parametrize("mode", MODES)
def test_sparse_mixed_roots_are_byte_identical(algorithm, mode):
    roots = _sparse_roots()
    for max_nodes in BUDGETS + (None,):
        oracle = reference_exploration(roots, algorithm, mode, max_nodes)
        for kernel in ("table", "packed"):
            graph = build_transition_graph(
                roots, algorithm=algorithm, mode=mode, max_nodes=max_nodes, kernel=kernel
            )
            _assert_same_graph(graph, oracle)
            _assert_same_verdicts(graph, oracle)


def test_graph_arrays_are_csr(algorithm):
    graph = build_transition_graph(
        enumerate_canonical_node_sets(6), algorithm=algorithm, mode="ssync", kernel="table"
    )
    arrays = graph.arrays
    assert arrays.indptr[0] == 0 and arrays.indptr[-1] == len(arrays.dst) == len(arrays.bits)
    assert (np.diff(arrays.indptr) >= 0).all()
    moving = arrays.state == STATE_EDGES
    assert (np.diff(arrays.indptr)[moving] > 0).all()
    assert (np.diff(arrays.indptr)[~moving] == 0).all()
    assert arrays.dst.min() >= -2 and arrays.dst.max() < len(arrays.state)
    assert arrays.roots.tolist() == list(range(len(graph.roots)))


@pytest.mark.parametrize("size", (5, 6, 7))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kernel", ("table", "packed"))
def test_exhaustive_roots_as_rows_equal_tuple_roots(algorithm, size, mode, kernel):
    """``explore(roots=None)`` passes the position array; the graph, its
    verdicts and the won roots are those of the tuple roots."""
    rows = explore(algorithm=algorithm, size=size, mode=mode, kernel=kernel, with_witnesses=False)
    won_rows = won_roots(rows)  # names only the won roots: no vertex is named yet
    tuples = explore(
        algorithm=algorithm,
        roots=enumerate_canonical_node_sets(size),
        mode=mode,
        kernel=kernel,
        with_witnesses=False,
    )
    for field, got, want in zip(rows.graph.arrays._fields, rows.graph.arrays, tuples.graph.arrays):
        assert np.array_equal(got, want), field
    assert rows.graph.vertex_packed() == tuples.graph.vertex_packed()
    assert rows.root_census == tuples.root_census
    node_class = tuples.classification.node_class
    won = frozenset(p for p in tuples.graph.roots if node_class[p] in ("gathered", "safe"))
    assert won_rows == won == won_roots(rows)
    assert np.array_equal(rows.won_mask(), tuples.won_mask())
    won_mask = tuples.won_mask().tolist()
    assert frozenset(p for p, w in zip(tuples.graph.roots, won_mask) if w) == won
