"""Tests for the configuration enumeration (experiment E1)."""
import json

import numpy as np
import pytest

from repro import obs
from repro.core.configuration import Configuration
from repro.enumeration.polyhex import (
    FIXED_POLYHEX_COUNTS,
    FREE_POLYHEX_COUNTS,
    canonical_positions,
    canonical_shapes,
    count_connected_configurations,
    count_free_configurations,
    enumerate_canonical_node_sets,
    enumerate_connected_configurations,
    iter_canonical_node_sets,
    iter_connected_configurations,
)
from repro.grid.coords import Coord, neighbors
from repro.grid.packing import pack_nodes
from repro.grid.symmetry import canonical_translation

from oracles import grow_level_sets, sorted_levels


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_counts_match_fixed_polyhex_series_small(size):
    assert count_connected_configurations(size) == FIXED_POLYHEX_COUNTS[size]


def test_count_size_six():
    assert count_connected_configurations(6) == 814


@pytest.mark.slow
def test_count_size_seven_matches_paper():
    """The paper's evaluation covers all 3652 connected initial configurations."""
    assert count_connected_configurations(7) == 3652


def test_enumerated_sets_are_connected_and_canonical():
    shapes = enumerate_canonical_node_sets(4)
    assert len(shapes) == len(set(shapes))
    for shape in shapes:
        assert Configuration(shape).is_connected()
        assert min(shape) == Coord(0, 0)
        assert canonical_translation(shape) == shape


def test_enumerated_configurations_are_connected():
    for config in enumerate_connected_configurations(5):
        assert config.is_connected()
        assert len(config) == 5


def test_no_duplicates_up_to_translation():
    shapes = enumerate_canonical_node_sets(5)
    assert len({canonical_translation(s) for s in shapes}) == len(shapes)


def test_iter_matches_list():
    assert list(iter_connected_configurations(3)) == enumerate_connected_configurations(3)


def test_free_counts_match_known_series():
    for size in (1, 2, 3, 4, 5):
        assert count_free_configurations(size) == FREE_POLYHEX_COUNTS[size]


def test_invalid_size():
    with pytest.raises(ValueError):
        enumerate_canonical_node_sets(0)


def test_gathered_hexagon_is_enumerated():
    from repro.core.configuration import hexagon

    shapes = enumerate_canonical_node_sets(7)
    key = canonical_translation(hexagon().nodes)
    assert key in shapes

    def has_full_node(shape):
        occupied = set(shape)
        return any(all(nb in occupied for nb in neighbors(node)) for node in shape)

    # Seven nodes with one of degree 6 is the hexagon and nothing else.
    assert [shape for shape in shapes if has_full_node(shape)] == [key]


# ------------------------------------------------- the NumPy level grower
@pytest.fixture(scope="module")
def oracle_levels():
    """The set grower's sorted levels 1..8, released with this module."""
    return sorted_levels(8)


@pytest.mark.parametrize("size", range(1, 9))
def test_canonical_positions_equal_the_set_grower(size, oracle_levels):
    positions = canonical_positions(size)
    assert positions.dtype == np.int16
    assert positions.shape == (FIXED_POLYHEX_COUNTS[size], size, 2)
    assert np.array_equal(positions, np.array(oracle_levels[size - 1], dtype=np.int16))


@pytest.mark.slow
def test_canonical_positions_equal_the_set_grower_n9(oracle_levels):
    # pack_nodes is injective on canonical shapes and orders them like
    # sorted(), so equal sorted key lists mean equal arrays; comparing keys
    # keeps the oracle's 77359-tuple level out of memory.
    grown = {pack_nodes(shape) for shape in grow_level_sets(oracle_levels[-1])}
    keys = [pack_nodes(row) for row in canonical_positions(9).tolist()]
    assert keys == sorted(grown)


@pytest.mark.parametrize("size", range(1, 10))
def test_canonical_positions_are_anchored_and_strictly_sorted(size):
    positions = canonical_positions(size)
    assert len(positions) == FIXED_POLYHEX_COUNTS[size]
    assert not positions.flags.writeable
    assert (positions[:, 0] == 0).all()
    # pack_nodes packs a canonical shape first-node-most-significant, so its
    # integer order is the rows' lexicographic order.
    keys = [pack_nodes(row) for row in positions.tolist()]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_tuple_views_read_the_array_row_for_row():
    positions = canonical_positions(6)
    shapes = canonical_shapes(6)
    assert canonical_shapes(6) is shapes
    assert enumerate_canonical_node_sets(6) == list(shapes)
    assert list(iter_canonical_node_sets(6)) == list(shapes)
    assert [[tuple(node) for node in shape] for shape in shapes] == [
        [tuple(node) for node in row] for row in positions.tolist()
    ]
    assert all(isinstance(node, Coord) for shape in shapes for node in shape)


def test_canonical_positions_rejects_a_non_canonical_level():
    from repro.enumeration.polyhex import _grow_positions

    with pytest.raises(ValueError):
        _grow_positions(np.array([[[0, 0], [0, 5]]], dtype=np.int16))


def test_each_grown_level_records_a_span_and_counts_its_shapes(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    obs.export_delta()
    canonical_positions.cache_clear()
    obs.configure_sink(str(trace_path))
    try:
        canonical_positions(5)
    finally:
        obs.close_sink()
    spans = [json.loads(line) for line in trace_path.read_text().splitlines()]
    grown = [record["attrs"] for record in spans if record["name"] == "enumeration.grow"]
    assert [attrs["size"] for attrs in grown] == [1, 2, 3, 4, 5]
    assert [attrs["shapes"] for attrs in grown] == [FIXED_POLYHEX_COUNTS[n] for n in range(1, 6)]
    assert all(attrs["candidates"] >= attrs["shapes"] for attrs in grown[1:])
    counters = obs.export_delta()["counters"]
    assert counters["enumeration.shapes"] == sum(FIXED_POLYHEX_COUNTS[n] for n in range(1, 6))
    assert obs.snapshot()["gauges"]["table.peak_rss_bytes"] > 0
