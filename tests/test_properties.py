"""Property-based tests (hypothesis) for the core data structures and invariants."""
from hypothesis import given, settings, strategies as st

from repro.algorithms.visibility2 import ShibataGatheringAlgorithm
from repro.core.configuration import Configuration
from repro.core.engine import (
    apply_moves_nodes,
    compute_moves_packed,
    detect_collision_nodes,
    run_execution,
)
from repro.core.trace import Outcome
from repro.grid.coords import Coord, distance, neighbors, ring
from repro.grid.labels import label_of_offset, offset_of_label
from repro.grid.symmetry import canonical_translation, reflect_x, rotate

coords = st.tuples(st.integers(-30, 30), st.integers(-30, 30))


# --------------------------------------------------------------------- grid
@given(coords, coords)
def test_distance_symmetry(a, b):
    assert distance(a, b) == distance(b, a)


@given(coords, coords, coords)
def test_distance_triangle_inequality(a, b, c):
    assert distance(a, c) <= distance(a, b) + distance(b, c)


@given(coords)
def test_neighbors_at_distance_one(node):
    for nb in neighbors(node):
        assert distance(node, nb) == 1


@given(coords, st.integers(1, 4))
def test_ring_nodes_at_exact_distance(center, radius):
    nodes = ring(center, radius)
    assert len(nodes) == 6 * radius
    assert all(distance(center, n) == radius for n in nodes)


@given(coords)
def test_label_offset_roundtrip(node):
    assert offset_of_label(label_of_offset(node)) == Coord(*node)


@given(coords, st.integers(0, 5))
def test_rotation_preserves_distance_to_origin(node, steps):
    assert distance((0, 0), rotate(node, steps)) == distance((0, 0), node)


@given(coords)
def test_reflection_is_involutive(node):
    assert reflect_x(reflect_x(node)) == Coord(*node)


# --------------------------------------------------- configurations (grown)
def connected_configurations(min_size=2, max_size=7):
    """Strategy: grow a random connected configuration node by node."""

    @st.composite
    def build(draw):
        size = draw(st.integers(min_size, max_size))
        nodes = [Coord(0, 0)]
        while len(nodes) < size:
            anchor = nodes[draw(st.integers(0, len(nodes) - 1))]
            candidates = [nb for nb in neighbors(anchor) if nb not in nodes]
            if not candidates:
                continue
            nodes.append(candidates[draw(st.integers(0, len(candidates) - 1))])
        return Configuration(nodes)

    return build()


@given(connected_configurations(), coords)
def test_canonical_key_translation_invariance(config, offset):
    translated = config.translated(offset)
    assert config.canonical_key() == translated.canonical_key()
    assert canonical_translation(config.nodes) == canonical_translation(translated.nodes)


@given(connected_configurations())
def test_grown_configurations_are_connected(config):
    assert config.is_connected()


@given(connected_configurations(min_size=7, max_size=7))
@settings(max_examples=40, deadline=None)
def test_algorithm_never_collides_or_cycles(config):
    """Safety invariant of the transcribed algorithm on random connected inputs.

    The printed pseudocode is incomplete, so gathering is not guaranteed on
    every input -- but the executions it produces must never collide and
    never livelock (every observed failure is a clean deadlock or a
    disconnection, see EXPERIMENTS.md).
    """
    trace = run_execution(config, ShibataGatheringAlgorithm(), max_rounds=300, record_rounds=False)
    assert trace.outcome is not Outcome.COLLISION
    assert trace.outcome is not Outcome.LIVELOCK
    assert trace.outcome is not Outcome.ROUND_LIMIT


@given(connected_configurations(min_size=7, max_size=7))
@settings(max_examples=40, deadline=None)
def test_single_round_preserves_robot_count(config):
    algorithm = ShibataGatheringAlgorithm()
    moves = compute_moves_packed(config.nodes, algorithm)
    if detect_collision_nodes(config.nodes, moves) is None:
        after = apply_moves_nodes(config.nodes, moves)
        assert len(after) == len(config)
