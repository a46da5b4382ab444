"""Tests for the packed integer encodings (repro.grid.packing)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.view import View, view_of
from repro.core.configuration import Configuration, hexagon, line
from repro.grid.coords import disk, distance
from repro.grid.packing import (
    all_view_bitmasks,
    disk_offsets,
    offset_bit_table,
    pack_nodes,
    pack_offsets,
    unpack_nodes,
    unpack_offsets,
    view_bit_count,
    view_bitmask,
)

# ---------------------------------------------------------------------------
# Visibility-disk enumeration and view bitmasks.
# ---------------------------------------------------------------------------


def test_disk_offsets_sizes():
    assert view_bit_count(1) == 6
    assert view_bit_count(2) == 18
    assert view_bit_count(6) == 126  # full-visibility baseline range


def test_disk_offsets_exclude_origin_and_stay_in_range():
    for rng in (1, 2, 3):
        offsets = disk_offsets(rng)
        assert (0, 0) not in offsets
        assert len(set(offsets)) == len(offsets)
        assert set(offsets) == {c for c in disk((0, 0), rng) if c != (0, 0)}


def test_disk_offsets_ring_ordered():
    offsets = disk_offsets(2)
    distances = [distance((0, 0), o) for o in offsets]
    assert distances == sorted(distances)  # ring 1 bits before ring 2 bits


def test_offset_bit_table_values_are_bits():
    table = offset_bit_table(2)
    assert sorted(table.values()) == [1 << i for i in range(18)]


def test_pack_unpack_offsets_roundtrip_exhaustive_range1():
    for bitmask in range(64):
        offsets = unpack_offsets(bitmask, 1)
        assert pack_offsets(offsets, 1) == bitmask


@given(st.sets(st.sampled_from(disk_offsets(2)), max_size=18))
def test_pack_unpack_offsets_roundtrip_range2(offsets):
    bitmask = pack_offsets(offsets, 2)
    assert set(unpack_offsets(bitmask, 2)) == set(offsets)


def test_pack_offsets_rejects_out_of_range():
    with pytest.raises(ValueError):
        pack_offsets([(3, 0)], 2)
    with pytest.raises(ValueError):
        unpack_offsets(1 << 18, 2)


def test_view_bitmask_matches_view_of():
    config = Configuration([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, -1), (-1, 0)])
    for pos in config.sorted_nodes():
        bitmask = view_bitmask(config.nodes, pos, 2)
        view = view_of(config, pos, 2)
        assert bitmask == view.bitmask()
        rebuilt = View.from_bitmask(bitmask, 2)
        assert rebuilt == view


def test_all_view_bitmasks_one_pass_matches_per_robot():
    config = line(7)
    per_robot = [
        (pos, view_bitmask(config.nodes, pos, 2)) for pos in config.sorted_nodes()
    ]
    assert all_view_bitmasks(config.nodes, 2) == per_robot


# ---------------------------------------------------------------------------
# Packed configurations.
# ---------------------------------------------------------------------------

_nodes_strategy = st.sets(
    st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=1, max_size=9
)


@given(_nodes_strategy)
@settings(max_examples=200)
def test_pack_nodes_roundtrip(nodes):
    packed = pack_nodes(nodes)
    unpacked = unpack_nodes(packed)
    # The unpacked form is the canonical (origin-anchored, sorted) translate.
    assert Configuration(unpacked).canonical_key() == Configuration(nodes).canonical_key()
    assert unpacked == tuple(sorted(Configuration(nodes).normalized().nodes))


@given(_nodes_strategy, st.integers(-1000, 1000), st.integers(-1000, 1000))
@settings(max_examples=200)
def test_pack_nodes_translation_invariant(nodes, dq, dr):
    translated = {(q + dq, r + dr) for q, r in nodes}
    assert pack_nodes(nodes) == pack_nodes(translated)


@given(_nodes_strategy, _nodes_strategy)
@settings(max_examples=200)
def test_pack_nodes_injective_up_to_translation(a, b):
    same_packed = pack_nodes(a) == pack_nodes(b)
    same_canonical = (
        Configuration(a).canonical_key() == Configuration(b).canonical_key()
    )
    assert same_packed == same_canonical


def test_pack_nodes_agrees_with_canonical_key_on_named_configs():
    seen = set()
    for config in (hexagon(), hexagon((5, -3)), line(7), line(4)):
        packed = pack_nodes(config.nodes)
        assert unpack_nodes(packed) == config.canonical_key()
        seen.add(packed)
    assert len(seen) == 3  # the two hexagons collapse to one key


def test_pack_nodes_empty_and_limits():
    assert pack_nodes([]) == 0
    assert unpack_nodes(0) == ()
    with pytest.raises(ValueError):
        pack_nodes([(0, 0), (1 << 21, 0)])
    with pytest.raises(ValueError):
        pack_nodes([(i, 0) for i in range(64)])
    with pytest.raises(ValueError):
        unpack_nodes(-1)
