"""Tests for the baseline algorithms, the registry and the shared guards."""
import pytest

from repro.algorithms.baselines import (
    FULL_VISIBILITY_RANGE,
    FullVisibilityGreedyAlgorithm,
    NaiveEastAlgorithm,
)
from repro.algorithms.guards import connectivity_safe, entry_uncontested
from repro.algorithms.registry import available_algorithms, create_algorithm, register_algorithm
from repro.core.algorithm import StayAlgorithm
from repro.core.configuration import Configuration, hexagon
from repro.core.engine import run_execution
from repro.core.trace import Outcome
from repro.core.view import View, view_of
from repro.grid.directions import Direction


def test_full_visibility_greedy_is_quiescent_when_gathered():
    algo = FullVisibilityGreedyAlgorithm()
    for position in hexagon().sorted_nodes():
        assert algo.compute(view_of(hexagon(), position, FULL_VISIBILITY_RANGE)) is None


def test_full_visibility_greedy_gathers_a_compact_blob():
    algo = FullVisibilityGreedyAlgorithm()
    config = Configuration([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (1, 2)])
    trace = run_execution(config, algo, max_rounds=300)
    assert trace.outcome in (Outcome.GATHERED, Outcome.DEADLOCK)


def test_naive_east_moves_east_towards_robots():
    algo = NaiveEastAlgorithm()
    view = View([(2, 0)], 2)
    assert algo.compute(view) is Direction.E
    # blocked by an adjacent east robot
    assert algo.compute(View([(1, 0)], 2)) is None
    # nothing on the east side: stay
    assert algo.compute(View([(-1, 0)], 2)) is None


def test_naive_east_fails_often():
    algo = NaiveEastAlgorithm()
    trace = run_execution(Configuration([(0, i) for i in range(7)]), algo, max_rounds=300)
    assert trace.outcome is not Outcome.GATHERED


def test_registry_round_trip():
    names = available_algorithms()
    assert "shibata-visibility2" in names
    assert "range1:east-pull" in names
    algo = create_algorithm("shibata-visibility2")
    assert algo.visibility_range == 2


def test_registry_unknown_name():
    with pytest.raises(KeyError):
        create_algorithm("no-such-algorithm")


def test_registry_register_custom():
    register_algorithm("custom-stay", StayAlgorithm)
    assert "custom-stay" in available_algorithms()
    assert isinstance(create_algorithm("custom-stay"), StayAlgorithm)


def test_connectivity_safe_blocks_stranding_moves():
    # Robot at origin with a single west neighbour: moving east strands it.
    view = View([(-1, 0)], 2)
    assert not connectivity_safe(view, Direction.E)
    # Same neighbour, but moving north-west keeps it in the local component
    # only if it stays adjacent -- it does not, so the guard refuses too.
    assert not connectivity_safe(view, Direction.NE)


def test_connectivity_safe_allows_supported_moves():
    # West neighbour itself supported by a robot adjacent to the target.
    view = View([(1, 0), (1, 1)], 2)
    assert connectivity_safe(view, Direction.NE)


def test_entry_uncontested():
    view = View([(1, 0)], 2)
    # Moving NE: the target (0,1) is adjacent to the east robot (1,0)? distance
    # ((1,0),(0,1)) == 1, so the entry IS contested.
    assert not entry_uncontested(view, Direction.NE)
    assert entry_uncontested(View([(-2, 0)], 2), Direction.E)
