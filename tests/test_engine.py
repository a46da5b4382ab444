"""Tests for the Look-Compute-Move engine and its collision semantics."""
from repro.core.algorithm import FunctionAlgorithm, StayAlgorithm
from repro.core.configuration import Configuration, hexagon, line
from repro.core.engine import (
    apply_moves_nodes,
    compute_moves_packed,
    detect_collision_nodes,
    run_execution,
)
from repro.core.scheduler import RoundRobinScheduler
from repro.core.trace import Outcome
from repro.grid.coords import Coord
from repro.grid.directions import Direction


def _always(direction):
    return FunctionAlgorithm(lambda view: direction, visibility_range=1, name="always")


def test_compute_moves_stay_algorithm():
    config = line(7)
    assert compute_moves_packed(config.nodes, StayAlgorithm()) == {}


def test_detect_swap_collision():
    config = Configuration([(0, 0), (1, 0)])
    moves = {Coord(0, 0): Direction.E, Coord(1, 0): Direction.W}
    kind, nodes = detect_collision_nodes(config.nodes, moves)
    assert kind == "swap"


def test_detect_move_onto_staying_robot():
    config = Configuration([(0, 0), (1, 0)])
    moves = {Coord(0, 0): Direction.E}
    kind, nodes = detect_collision_nodes(config.nodes, moves)
    assert kind == "move-onto-staying"


def test_detect_same_target_collision():
    config = Configuration([(0, 0), (2, 0)])
    moves = {Coord(0, 0): Direction.E, Coord(2, 0): Direction.W}
    kind, nodes = detect_collision_nodes(config.nodes, moves)
    assert kind == "same-target"
    assert Coord(1, 0) in nodes


def test_following_a_vacating_robot_is_allowed():
    config = Configuration([(0, 0), (1, 0)])
    moves = {Coord(0, 0): Direction.E, Coord(1, 0): Direction.E}
    assert detect_collision_nodes(config.nodes, moves) is None
    after = Configuration(apply_moves_nodes(config.nodes, moves))
    assert after == Configuration([(1, 0), (2, 0)])


def test_run_execution_already_gathered():
    trace = run_execution(hexagon(), StayAlgorithm())
    assert trace.outcome is Outcome.GATHERED
    assert trace.num_rounds == 0
    assert trace.total_moves == 0


def test_run_execution_deadlock():
    trace = run_execution(line(7), StayAlgorithm())
    assert trace.outcome is Outcome.DEADLOCK
    assert trace.final == line(7)


def test_run_execution_livelock_detected_by_translation():
    # Everybody marches east forever: the configuration repeats up to
    # translation after one round, which is a livelock.
    trace = run_execution(line(7, Direction.E), _always(Direction.E))
    assert trace.outcome is Outcome.LIVELOCK
    assert trace.cycle_start == 0
    assert trace.num_rounds == 1


def test_run_execution_collision_outcome():
    config = Configuration([(0, 0), (2, 0), (0, 5), (1, 5), (2, 5), (3, 5), (4, 5)])
    towards_east_gap = FunctionAlgorithm(
        lambda view: Direction.E if not view.occupied_direction(Direction.E) and view.adjacent_degree() == 0 else None,
        visibility_range=1,
    )
    # The two isolated robots both move towards (1,0) -> same-target collision.
    trace = run_execution(
        Configuration([(0, 0), (2, 0)] + [(i, 5) for i in range(5)]),
        FunctionAlgorithm(
            lambda view: Direction.E if len(view) == 0 else (
                Direction.W if len(view) == 0 else None),
            visibility_range=1,
        ),
    )
    # Build the collision deterministically instead: both ends move inward.
    def inward(view):
        if view.occupied_label((-4, 0)) and not view.occupied_label((-2, 0)):
            return Direction.W
        if view.occupied_label((4, 0)) and not view.occupied_label((2, 0)):
            return Direction.E
        return None

    config2 = Configuration([(0, 0), (2, 0)] + [(i, 5) for i in range(5)])
    trace2 = run_execution(config2, FunctionAlgorithm(inward, visibility_range=2))
    assert trace2.outcome is Outcome.COLLISION
    assert trace2.collision_kind == "same-target"


def test_run_execution_disconnection_outcome():
    # A pair of adjacent robots walking away from the rest disconnects.
    def flee(view):
        if view.adjacent_degree() <= 1 and not view.occupied_direction(Direction.W):
            return Direction.W
        return None

    config = Configuration([(0, 0), (0, 1)] + [(i + 3, 0) for i in range(5)])
    trace = run_execution(config, FunctionAlgorithm(flee, visibility_range=1))
    assert trace.outcome is Outcome.DISCONNECTED


def test_run_execution_round_limit():
    trace = run_execution(
        line(7, Direction.E), _always(Direction.E), max_rounds=0
    )
    assert trace.outcome is Outcome.ROUND_LIMIT


def test_run_execution_records_rounds_optionally():
    trace = run_execution(line(7), StayAlgorithm(), record_rounds=False)
    assert trace.rounds == []
    assert trace.outcome is Outcome.DEADLOCK


def test_ssync_scheduler_activation_subset():
    scheduler = RoundRobinScheduler(robots_per_round=1)
    config = line(3)
    moves_round0 = compute_moves_packed(config.nodes, _always(Direction.NE), scheduler.activated(0, config.sorted_nodes()))
    assert len(moves_round0) == 1
