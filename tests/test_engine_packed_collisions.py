"""Collision semantics of the packed kernel path.

Section II-A forbids three behaviours; ``detect_collision_nodes`` (the packed
occupancy-set form used by the hot loop) must flag each of them, and full
packed executions must surface them as :attr:`Outcome.COLLISION` with the
right ``collision_kind``.
"""

from repro.core.algorithm import FunctionAlgorithm
from repro.core.configuration import Configuration
from repro.core.engine import (
    apply_moves_nodes,
    detect_collision_nodes,
    run_execution,
)
from repro.core.trace import Outcome
from repro.grid.coords import Coord
from repro.grid.directions import Direction

from oracles import reference_execution

# ---------------------------------------------------------------- unit level


def test_detect_swap_on_node_set():
    occupied = {Coord(0, 0), Coord(1, 0)}
    moves = {Coord(0, 0): Direction.E, Coord(1, 0): Direction.W}
    kind, nodes = detect_collision_nodes(occupied, moves)
    assert kind == "swap"
    assert set(nodes) == occupied


def test_detect_move_onto_staying_on_node_set():
    occupied = {Coord(0, 0), Coord(1, 0)}
    moves = {Coord(0, 0): Direction.E}
    kind, nodes = detect_collision_nodes(occupied, moves)
    assert kind == "move-onto-staying"
    assert Coord(1, 0) in nodes


def test_detect_same_target_on_node_set():
    occupied = {Coord(0, 0), Coord(2, 0)}
    moves = {Coord(0, 0): Direction.E, Coord(2, 0): Direction.W}
    kind, nodes = detect_collision_nodes(occupied, moves)
    assert kind == "same-target"
    assert Coord(1, 0) in nodes


def test_following_allowed_on_node_set():
    occupied = frozenset({Coord(0, 0), Coord(1, 0)})
    moves = {Coord(0, 0): Direction.E, Coord(1, 0): Direction.E}
    assert detect_collision_nodes(occupied, moves) is None
    assert apply_moves_nodes(occupied, moves) == {Coord(1, 0), Coord(2, 0)}


def test_detect_collision_nodes_accepts_any_iterable():
    moves = {Coord(0, 0): Direction.E}
    assert detect_collision_nodes([(0, 0), (1, 0)], moves)[0] == "move-onto-staying"


# ----------------------------------------------------- full packed executions


def _run_packed(configuration, func, visibility_range=1, max_rounds=10):
    algorithm = FunctionAlgorithm(func, visibility_range=visibility_range)
    return run_execution(
        configuration, algorithm, max_rounds=max_rounds, kernel="packed"
    )


def test_packed_execution_swap_collision():
    def towards_partner(view):
        if view.occupied_direction(Direction.E):
            return Direction.E
        if view.occupied_direction(Direction.W):
            return Direction.W
        return None

    trace = _run_packed(Configuration([(0, 0), (1, 0)]), towards_partner)
    assert trace.outcome is Outcome.COLLISION
    assert trace.collision_kind == "swap"
    assert trace.termination_round == 0


def test_packed_execution_move_onto_staying_collision():
    def eastbound(view):
        return Direction.E if view.occupied_direction(Direction.E) else None

    trace = _run_packed(Configuration([(0, 0), (1, 0)]), eastbound)
    assert trace.outcome is Outcome.COLLISION
    assert trace.collision_kind == "move-onto-staying"


def test_packed_execution_same_target_collision():
    def inward(view):
        if view.occupied_label((-4, 0)) and not view.occupied_label((-2, 0)):
            return Direction.W
        if view.occupied_label((4, 0)) and not view.occupied_label((2, 0)):
            return Direction.E
        return None

    config = Configuration([(0, 0), (2, 0)] + [(i, 5) for i in range(5)])
    trace = run_execution(
        config,
        FunctionAlgorithm(inward, visibility_range=2),
        max_rounds=10,
        kernel="packed",
    )
    assert trace.outcome is Outcome.COLLISION
    assert trace.collision_kind == "same-target"


def test_packed_collision_matches_reference_kind():
    def eastbound(view):
        return Direction.E if view.occupied_direction(Direction.E) else None

    config = Configuration([(0, 0), (1, 0), (0, 3), (1, 3)])
    algorithm = FunctionAlgorithm(eastbound, visibility_range=1)
    packed = run_execution(config, algorithm, max_rounds=10, kernel="packed")
    reference = reference_execution(config, algorithm, max_rounds=10)
    assert packed.outcome is reference.outcome is Outcome.COLLISION
    assert packed.collision_kind == reference.collision_kind
    assert packed.termination_round == reference.termination_round
