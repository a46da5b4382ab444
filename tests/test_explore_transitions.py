"""Tests for the transition-graph builder (repro.explore.transitions)."""
import pytest

from repro.algorithms.visibility2 import ShibataGatheringAlgorithm
from repro.core.configuration import Configuration, hexagon
from repro.core.engine import move_intents, run_execution, step_nodes
from repro.enumeration.polyhex import enumerate_canonical_node_sets
from repro.explore.transitions import (
    COLLISION_SINK,
    DISCONNECT_SINK,
    TERMINAL_GATHERED,
    TransitionGraph,
    build_transition_graph,
    expand_packed,
)
from repro.grid.packing import pack_nodes, unpack_nodes


@pytest.fixture(scope="module")
def algorithm():
    return ShibataGatheringAlgorithm()


# ------------------------------------------------------------ engine step API

def test_move_intents_matches_full_activation(algorithm):
    nodes = hexagon().nodes
    assert move_intents(nodes, algorithm) == {}
    line = Configuration([(i, 0) for i in range(7)])
    intents = move_intents(line.nodes, algorithm)
    trace = run_execution(line, algorithm, max_rounds=1, record_rounds=True)
    assert intents == trace.rounds[0].moves


def test_step_nodes_restricts_to_activation_subset(algorithm):
    line = Configuration([(i, 0) for i in range(7)])
    intents = move_intents(line.nodes, algorithm)
    assert intents
    mover = sorted(intents)[0]
    next_nodes, moves, collision = step_nodes(line.nodes, algorithm, activated={mover})
    assert collision is None
    assert set(moves) == {mover}
    assert moves[mover] == intents[mover]
    expected = set(line.nodes) - {mover} | {mover.step(intents[mover])}
    assert next_nodes == expected


def test_step_nodes_full_activation_matches_engine_round(algorithm):
    line = Configuration([(i, 0) for i in range(7)])
    trace = run_execution(line, algorithm, max_rounds=1, record_rounds=True)
    next_nodes, moves, collision = step_nodes(line.nodes, algorithm)
    assert collision is None
    assert moves == trace.rounds[0].moves
    assert next_nodes == trace.final.nodes


# ----------------------------------------------------------------- expansion

def test_expand_gathered_vertex_is_terminal(algorithm):
    packed = pack_nodes(hexagon().nodes)
    edges, terminal = expand_packed(packed, algorithm, mode="fsync")
    assert edges == ()
    assert terminal == TERMINAL_GATHERED


def test_expand_fsync_has_single_edge_matching_engine(algorithm):
    line = Configuration([(i, 0) for i in range(7)])
    packed = pack_nodes(line.nodes)
    edges, terminal = expand_packed(packed, algorithm, mode="fsync")
    assert terminal is None
    assert len(edges) == 1
    bits, destination = edges[0]
    intents = move_intents(line.nodes, algorithm)
    positions = unpack_nodes(packed)
    movers = TransitionGraph.movers_of(packed, bits)
    assert set(movers) == set(intents)
    # The destination is the engine's own next configuration, canonicalized.
    next_nodes, _, _ = step_nodes(positions, algorithm)
    assert destination == pack_nodes(next_nodes)


def test_expand_ssync_covers_all_mover_subsets(algorithm):
    line = Configuration([(i, 0) for i in range(7)])
    packed = pack_nodes(line.nodes)
    edges, _ = expand_packed(packed, algorithm, mode="ssync")
    intents = move_intents(line.nodes, algorithm)
    # Every edge activates a non-empty subset of the intent set.
    for bits, destination in edges:
        movers = TransitionGraph.movers_of(packed, bits)
        assert movers
        assert set(movers) <= set(intents)
    # Destinations are deduplicated and include the FSYNC successor.
    destinations = [destination for _, destination in edges]
    assert len(destinations) == len(set(destinations))
    fsync_edges, _ = expand_packed(packed, algorithm, mode="fsync")
    assert fsync_edges[0][1] in destinations


def test_expand_ssync_minimal_mover_representative(algorithm):
    """Among subsets reaching the same successor, a fewest-mover one is kept."""
    from itertools import combinations

    from repro.core.engine import apply_moves_nodes, detect_collision_nodes

    line = Configuration([(i, 0) for i in range(7)])
    packed = pack_nodes(line.nodes)
    edges, _ = expand_packed(packed, algorithm, mode="ssync")
    positions = unpack_nodes(packed)
    intents = move_intents(positions, algorithm)
    # Brute force: the smallest mover count reaching each destination.
    best = {}
    for size in range(1, len(intents) + 1):
        for subset in combinations(sorted(intents), size):
            moves = {pos: intents[pos] for pos in subset}
            if detect_collision_nodes(frozenset(positions), moves) is not None:
                destination = COLLISION_SINK
            else:
                destination = pack_nodes(apply_moves_nodes(positions, moves))
            best.setdefault(destination, size)
    for bits, destination in edges:
        if destination == DISCONNECT_SINK:
            continue  # brute force above does not model connectivity
        assert bin(bits).count("1") == best[destination]


def test_expand_rejects_unknown_mode(algorithm):
    packed = pack_nodes(hexagon().nodes)
    with pytest.raises(ValueError, match="unknown mode"):
        expand_packed(packed, algorithm, mode="async")


def test_disconnection_edge_goes_to_sink(algorithm):
    """A two-robot pair where one moves away disconnects; the edge must hit the sink."""
    from repro.core.algorithm import FunctionAlgorithm
    from repro.grid.directions import Direction

    def flee(view):
        return Direction.E if view.occupied((-1, 0)) else None

    algo = FunctionAlgorithm(flee, visibility_range=1, name="flee")
    packed = pack_nodes([(0, 0), (1, 0)])
    edges, terminal = expand_packed(packed, algo, mode="fsync")
    assert terminal is None
    assert edges == ((2, DISCONNECT_SINK),)  # robot index 1 moves east


def test_collision_edge_goes_to_sink():
    """Two robots walking into each other produce a collision edge."""
    from repro.core.algorithm import FunctionAlgorithm
    from repro.grid.directions import Direction

    def clash(view):
        if view.occupied((2, 0)):
            return Direction.E
        if view.occupied((-2, 0)):
            return Direction.W
        return None

    algo = FunctionAlgorithm(clash, visibility_range=2, name="clash")
    packed = pack_nodes([(0, 0), (2, 0)])
    edges, terminal = expand_packed(packed, algo, mode="fsync")
    assert terminal is None
    assert edges == ((0b11, COLLISION_SINK),)


# -------------------------------------------------------------- graph builds

def test_build_requires_exactly_one_algorithm_argument():
    roots = enumerate_canonical_node_sets(3)
    with pytest.raises(ValueError, match="exactly one"):
        build_transition_graph(roots)
    with pytest.raises(ValueError, match="exactly one"):
        build_transition_graph(
            roots,
            algorithm=ShibataGatheringAlgorithm(),
            algorithm_name="shibata-visibility2",
        )


def test_build_fsync_graph_is_functional(algorithm):
    graph = build_transition_graph(
        enumerate_canonical_node_sets(5), algorithm=algorithm, mode="fsync"
    )
    assert not graph.truncated
    for packed, edges in graph.edges.items():
        assert len(edges) == 1
    # Every vertex is expanded exactly once: edges and terminals partition nodes.
    assert graph.num_nodes == len(graph.edges) + len(graph.terminal)
    assert set(graph.roots) <= set(graph.nodes())


def test_build_ssync_superset_of_fsync(algorithm):
    roots = enumerate_canonical_node_sets(5)
    fsync = build_transition_graph(roots, algorithm=algorithm, mode="fsync")
    ssync = build_transition_graph(roots, algorithm=algorithm, mode="ssync")
    assert set(fsync.nodes()) <= set(ssync.nodes())
    for packed, edges in fsync.edges.items():
        fsync_dst = edges[0][1]
        assert fsync_dst in [dst for _, dst in ssync.edges[packed]]
    assert ssync.num_edges >= fsync.num_edges


def test_build_max_nodes_truncates(algorithm):
    roots = enumerate_canonical_node_sets(6)
    graph = build_transition_graph(
        roots, algorithm=algorithm, mode="ssync", max_nodes=50
    )
    assert graph.truncated
    assert len(graph.edges) + len(graph.terminal) == 50
    assert graph.unexplored
    # Unexplored vertices have no stored edges.
    for packed in graph.unexplored:
        assert graph.successors(packed) == ()


def test_build_parallel_matches_serial():
    roots = enumerate_canonical_node_sets(5)
    serial = build_transition_graph(
        roots, algorithm_name="shibata-visibility2", mode="ssync"
    )
    parallel = build_transition_graph(
        roots,
        algorithm_name="shibata-visibility2",
        mode="ssync",
        workers=2,
        chunk_size=16,
    )
    assert serial.terminal == parallel.terminal
    assert serial.edges == parallel.edges
    assert serial.roots == parallel.roots


def test_roots_are_deduplicated(algorithm):
    config = Configuration([(0, 0), (1, 0)])
    translated = config.translated((5, -3))
    graph = build_transition_graph(
        [config, translated], algorithm=algorithm, mode="fsync"
    )
    assert len(graph.roots) == 1
