"""Tests for repro.core.view."""
import random
from functools import lru_cache

import pytest

from oracles import FrozensetView
from repro.algorithms.registry import available_algorithms, create_algorithm
from repro.core.configuration import Configuration, hexagon
from repro.core.view import View, all_views_of, view_of
from repro.enumeration.polyhex import canonical_positions
from repro.grid.coords import Coord, disk
from repro.grid.directions import Direction
from repro.grid.labels import label_of_offset
from repro.grid.packing import all_view_bitmasks


def test_view_excludes_self_and_checks_range():
    view = View([(1, 0), (0, 0)], visibility_range=1)
    assert len(view) == 1
    with pytest.raises(ValueError):
        View([(3, 0)], visibility_range=2)


def test_view_of_requires_robot_at_position():
    config = Configuration([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        view_of(config, (5, 5), 2)


def test_view_of_range_1_sees_only_adjacent():
    config = Configuration([(0, 0), (1, 0), (2, 0), (0, 1)])
    view = view_of(config, (0, 0), 1)
    assert view.occupied_offsets == frozenset({Coord(1, 0), Coord(0, 1)})
    assert view.adjacent_degree() == 2


def test_view_of_range_2_sees_two_hops():
    config = Configuration([(0, 0), (1, 0), (2, 0), (0, 1)])
    view = view_of(config, (0, 0), 2)
    assert Coord(2, 0) in view.occupied_offsets
    assert view.occupied_label((4, 0))
    assert view.occupied_label((2, 0))
    assert view.occupied_label((1, 1))
    assert not view.occupied_label((3, 1))


def test_figure_3_example():
    # Fig. 3 of the paper: a robot at v_j sees robots E, SW, NE at range 1 and
    # two more robot nodes at range 2.
    config = Configuration([(0, 0), (1, 0), (0, -1), (0, 1), (2, -1), (-1, 2)])
    view1 = view_of(config, (0, 0), 1)
    assert set(view1.adjacent_robot_directions()) == {
        Direction.E,
        Direction.SW,
        Direction.NE,
    }
    view2 = view_of(config, (0, 0), 2)
    assert len(view2) == 5


def test_own_node_always_occupied():
    view = View([(1, 0)], 2)
    assert view.occupied((0, 0))
    assert view.occupied_label((0, 0))


def test_labels_with_max_x_and_tie():
    view = View([(0, 1), (1, -1)], 2)  # labels (1,1) and (1,-1)
    assert view.max_x_element() == 1
    assert view.labels_with_max_x() == [(1, -1), (1, 1)]


def test_labels_with_max_x_self_included_when_zero():
    view = View([(-1, 0)], 2)  # only a west robot: max x is the robot's own 0
    assert view.max_x_element() == 0
    assert (0, 0) in view.labels_with_max_x()


def test_robots_at_distance():
    config = hexagon()
    view = view_of(config, (0, 0), 2)
    assert len(view.robots_at_distance(1)) == 6
    assert view.robots_at_distance(2) == []


def test_restricted_view():
    config = Configuration([(0, 0), (1, 0), (2, 0)])
    view2 = view_of(config, (0, 0), 2)
    view1 = view2.restricted(1)
    assert view1.visibility_range == 1
    assert view1.occupied_offsets == frozenset({Coord(1, 0)})
    with pytest.raises(ValueError):
        view1.restricted(2)


def test_all_views_of():
    config = Configuration([(0, 0), (1, 0)])
    views = all_views_of(config, 1)
    assert len(views) == 2
    positions = [pos for pos, _ in views]
    assert positions == [Coord(0, 0), Coord(1, 0)]


def test_view_equality_and_hash():
    a = View([(1, 0)], 2)
    b = View([(1, 0)], 2)
    c = View([(1, 0)], 1)
    assert a == b and hash(a) == hash(b)
    assert a != c


# ---------------------------------------------------------------------------
# The bit-backed View against the frozenset oracle.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def unique_view_bitmasks(visibility_range, max_size=7):
    """Every distinct view bitmask of every connected configuration of <= max_size robots."""
    masks = set()
    for size in range(1, max_size + 1):
        for row in canonical_positions(size).tolist():
            masks.update(b for _, b in all_view_bitmasks(row, visibility_range))
    return tuple(sorted(masks))


@lru_cache(maxsize=None)
def _probes(r):
    """Offsets and labels inside the range-``r`` disk and just outside it."""
    offsets = tuple(disk((0, 0), r)) + ((r + 1, 0), (0, -r - 1), (-r - 1, r + 1))
    labels = tuple(label_of_offset(o) for o in offsets) + ((1, 0), (0, 1))
    return offsets, labels


def _answers(view):
    """Every public query of a view, over probes inside and just outside its disk."""
    r = view.visibility_range
    offsets, labels = _probes(r)
    return (
        view.bitmask(),
        view.visibility_range,
        view.occupied_offsets,
        view.occupied_labels,
        len(view),
        [view.occupied(o) for o in offsets],
        [view.occupied_label(label) for label in labels],
        [view.empty_label(label) for label in labels],
        [view.occupied_direction(d) for d in Direction],
        view.adjacent_robot_directions(),
        view.adjacent_degree(),
        [view.robots_at_distance(d) for d in range(r + 2)],
        view.max_x_element(),
        view.labels_with_max_x(),
        [view.restricted(k).occupied_offsets for k in range(1, r + 1)],
    )


def _assert_matches_oracle(bitmask, visibility_range):
    view = View.from_bitmask(bitmask, visibility_range)
    oracle = FrozensetView.from_bitmask(bitmask, visibility_range)
    assert _answers(view) == _answers(oracle), hex(bitmask)
    rebuilt = View(oracle.occupied_offsets, visibility_range)
    assert rebuilt == view and hash(rebuilt) == hash(view)


def test_every_range1_view_answers_like_the_oracle():
    for bitmask in range(64):
        _assert_matches_oracle(bitmask, 1)


def test_every_unique_n7_view_answers_like_the_oracle():
    masks = unique_view_bitmasks(2)
    assert len(masks) == 5251  # 5,250 views of n >= 2 plus the lone robot's
    for bitmask in masks:
        _assert_matches_oracle(bitmask, 2)


def test_sampled_range2_views_answer_like_the_oracle():
    rng = random.Random(20261017)
    for _ in range(20_000):
        _assert_matches_oracle(rng.getrandbits(18), 2)


def test_from_bitmask_rejects_bits_outside_the_disk():
    with pytest.raises(ValueError):
        View.from_bitmask(1 << 18, 2)
    with pytest.raises(ValueError):
        View.from_bitmask(-1, 1)


@pytest.mark.parametrize("name", available_algorithms())
def test_every_algorithm_decides_alike_on_oracle_views(name):
    algorithm = create_algorithm(name)
    r = algorithm.visibility_range
    masks = unique_view_bitmasks(r)
    if len(masks) > 5251:  # full visibility: a seeded sample of its ~31.6k views
        masks = random.Random(7).sample(masks, 5251)
    for bitmask in masks:
        view = View.from_bitmask(bitmask, r)
        oracle = FrozensetView.from_bitmask(bitmask, r)
        assert algorithm.compute(view) == algorithm.compute(oracle), hex(bitmask)
        if hasattr(algorithm, "explain"):
            assert algorithm.explain(view) == algorithm.explain(oracle), hex(bitmask)
