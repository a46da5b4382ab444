"""Tests for repro.core.configuration."""
import pytest

from repro.core.configuration import Configuration, from_offsets, hexagon, line
from repro.core.errors import InvalidConfigurationError
from repro.core.table_kernel import view_table
from repro.grid.coords import Coord, neighbors
from repro.grid.directions import Direction


def test_rejects_duplicate_nodes():
    with pytest.raises(InvalidConfigurationError):
        Configuration([(0, 0), (0, 0)])


def test_membership_and_len():
    config = Configuration([(0, 0), (1, 0), (0, 1)])
    assert len(config) == 3
    assert (1, 0) in config
    assert (5, 5) not in config
    assert config.occupied((0, 1))


def test_equality_and_hash_ignore_order():
    a = Configuration([(0, 0), (1, 0)])
    b = Configuration([(1, 0), (0, 0)])
    assert a == b
    assert hash(a) == hash(b)


def test_hexagon_is_gathered():
    config = hexagon()
    assert len(config) == 7
    assert config.is_gathered()
    assert config.gathering_center() == Coord(0, 0)
    assert config.diameter() == 2


def test_hexagon_offset_center():
    config = hexagon((4, -2))
    assert config.is_gathered()
    assert config.gathering_center() == Coord(4, -2)


def test_line_is_not_gathered():
    config = line(7)
    assert len(config) == 7
    assert not config.is_gathered()
    assert config.gathering_center() is None
    assert config.diameter() == 6
    assert config.is_connected()


def test_line_direction_and_length():
    config = line(4, Direction.E, start=(1, 1))
    assert config == Configuration([(1, 1), (2, 1), (3, 1), (4, 1)])


def test_gathering_predicate_small_sizes():
    assert Configuration([(0, 0)]).is_gathered()
    assert Configuration([(0, 0), (1, 0)]).is_gathered()
    assert not Configuration([(0, 0), (2, 0)]).is_gathered()
    assert Configuration([(0, 0), (1, 0), (0, 1)]).is_gathered()  # triangle
    assert not Configuration([(0, 0), (1, 0), (2, 0)]).is_gathered()
    assert Configuration([(0, 0), (1, 0), (0, 1), (1, 1)]).is_gathered()


def test_gathering_predicate_scaled_sizes():
    # n=8/9: gathered iff the diameter is the minimum achievable (3).
    hex_plus_one = Configuration(
        [(0, 0), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (2, -1)]
    )
    assert hex_plus_one.diameter() == 3
    assert hex_plus_one.is_gathered()
    assert not Configuration([(i, 0) for i in range(8)]).is_gathered()


def test_min_diameter_predicate_is_the_papers_definition_at_n7():
    # The table kernel marks a root gathered when its diameter is the minimum
    # achievable; the paper's Definition 1 asks for one robot node with six
    # robot neighbours.  At n=7 the two agree on every root.
    table = view_table(7, 2)
    paper = [
        any(all(nb in nodes for nb in neighbors(node)) for node in nodes)
        for nodes in ({tuple(p) for p in row} for row in table.positions.tolist())
    ]
    assert len(paper) == 3652
    assert table.gathered.tolist() == paper
    assert sum(paper) == 1


def test_gathering_predicate_wrong_size():
    # The min-diameter table now reaches n=12 (the sharded tier's horizon);
    # beyond it the predicate is undefined and must refuse, not guess.
    with pytest.raises(InvalidConfigurationError):
        Configuration([(i % 4, i // 4) for i in range(13)]).is_gathered()


def test_degrees_of_hexagon():
    config = hexagon()
    assert config.degree((0, 0)) == 6
    assert sorted(config.degrees()) == [3, 3, 3, 3, 3, 3, 6]


def test_occupied_directions():
    config = Configuration([(0, 0), (1, 0), (0, 1)])
    assert set(config.occupied_directions((0, 0))) == {Direction.E, Direction.NE}


def test_translated_and_normalized():
    config = Configuration([(2, 3), (3, 3)])
    assert config.translated((-2, -3)) == Configuration([(0, 0), (1, 0)])
    assert config.normalized() == Configuration([(0, 0), (1, 0)])


def test_canonical_key_translation_invariant():
    a = Configuration([(0, 0), (1, 0), (1, 1)])
    b = a.translated((7, -3))
    assert a.canonical_key() == b.canonical_key()


def test_moved():
    config = Configuration([(0, 0), (1, 0)])
    moved = config.moved((0, 0), (0, 1))
    assert moved == Configuration([(0, 1), (1, 0)])
    with pytest.raises(InvalidConfigurationError):
        config.moved((5, 5), (5, 6))
    with pytest.raises(InvalidConfigurationError):
        config.moved((0, 0), (1, 0))


def test_max_x_nodes_uses_doubled_coordinate():
    config = Configuration([(0, 0), (0, 2), (1, 0)])
    # doubled x: (0,0) -> 0, (0,2) -> 2, (1,0) -> 2: tie between the last two.
    assert config.max_x_nodes() == [Coord(0, 2), Coord(1, 0)]


def test_from_offsets():
    config = from_offsets((2, 2), [(0, 0), (1, 0)])
    assert config == Configuration([(2, 2), (3, 2)])


def test_disconnected_configuration_detected():
    config = Configuration([(0, 0), (3, 3)])
    assert not config.is_connected()
