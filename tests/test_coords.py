"""Tests for repro.grid.coords."""
import pytest

from repro.grid.coords import (
    ORIGIN,
    Coord,
    as_coord,
    bounding_box,
    centroid_shift,
    disk,
    distance,
    iter_path,
    neighbors,
    ring,
    translate,
)
from repro.grid.directions import DIRECTIONS, Direction


def test_coord_is_tuple_like():
    c = Coord(2, -1)
    assert c == (2, -1)
    assert c.q == 2 and c.r == -1
    assert hash(c) == hash((2, -1))


def test_coord_arithmetic():
    assert Coord(1, 2) + Coord(3, -1) == Coord(4, 1)
    assert Coord(1, 2) - (3, -1) == Coord(-2, 3)
    assert -Coord(1, 2) == Coord(-1, -2)


def test_step_matches_direction_vectors():
    for d in DIRECTIONS:
        assert ORIGIN.step(d) == Coord(*d.value)


def test_neighbors_are_at_distance_one():
    for nb in neighbors((3, -2)):
        assert distance((3, -2), nb) == 1
    assert len(neighbors((3, -2))) == 6
    assert len(set(neighbors((3, -2)))) == 6


def test_distance_is_a_metric_on_samples():
    samples = [Coord(0, 0), Coord(2, -1), Coord(-3, 2), Coord(1, 1), Coord(4, -4)]
    for a in samples:
        assert distance(a, a) == 0
        for b in samples:
            assert distance(a, b) == distance(b, a)
            for c in samples:
                assert distance(a, c) <= distance(a, b) + distance(b, c)


def test_distance_examples():
    assert distance((0, 0), (1, 0)) == 1
    assert distance((0, 0), (1, 1)) == 2
    assert distance((0, 0), (-1, 1)) == 1
    assert distance((0, 0), (2, -1)) == 2
    assert distance((0, 0), (0, 3)) == 3


def test_ring_sizes():
    assert ring((0, 0), 0) == [Coord(0, 0)]
    assert len(ring((0, 0), 1)) == 6
    assert len(ring((0, 0), 2)) == 12
    assert len(ring((5, -3), 3)) == 18


def test_ring_distance_invariant():
    for radius in range(1, 4):
        for node in ring((1, 1), radius):
            assert distance((1, 1), node) == radius


def test_ring_negative_radius():
    with pytest.raises(ValueError):
        ring((0, 0), -1)


def test_disk_sizes():
    # 1 + 6 + 12 + ... = 1 + 3k(k+1)
    for radius in range(4):
        assert len(disk((0, 0), radius)) == 1 + 3 * radius * (radius + 1)


def test_disk_contains_all_closer_nodes():
    d2 = set(disk((0, 0), 2))
    assert Coord(0, 0) in d2
    assert Coord(2, 0) in d2
    assert Coord(1, 1) in d2
    assert Coord(3, 0) not in d2


def test_translate():
    assert translate([(0, 0), (1, 1)], (2, -1)) == [Coord(2, -1), Coord(3, 0)]


def test_bounding_box():
    assert bounding_box([(0, 0), (2, -3), (-1, 4)]) == (-1, -3, 2, 4)
    with pytest.raises(ValueError):
        bounding_box([])


def test_centroid_shift_moves_min_to_origin():
    nodes = [(3, 2), (4, 2), (3, 3)]
    shift = centroid_shift(nodes)
    shifted = translate(nodes, shift)
    assert min(shifted) == Coord(0, 0)


def test_iter_path():
    path = list(iter_path((0, 0), [Direction.E, Direction.NE]))
    assert path == [Coord(0, 0), Coord(1, 0), Coord(1, 1)]


def test_as_coord_accepts_tuples():
    assert as_coord((2, 3)) == Coord(2, 3)
    assert as_coord(Coord(2, 3)) == Coord(2, 3)
