"""The bit-parallel guards against their ``Coord``-search oracles.

:func:`repro.algorithms.guards.connectivity_safe` is a flood fill over
per-range neighbour masks and :func:`~repro.algorithms.guards.entry_uncontested`
a single mask test.  Both must answer exactly like the node-by-node oracles in
``tests/oracles.py`` on every range-1 view, on a seeded sample of range-2
views, on range-3 views (bitmasks wider than the 18 range-2 bits) and on
occupied move targets, which the visibility-2 algorithms do pass.
"""
import random

import pytest

from oracles import reference_connectivity_safe, reference_entry_uncontested
from repro.algorithms.guards import connectivity_safe, entry_uncontested
from repro.core.view import View
from repro.grid.directions import DIRECTIONS
from repro.grid.packing import offset_bit_table, view_bit_count

#: Range-2 views sampled per seed (x 6 directions x 2 guards).
RANGE2_SAMPLE = 20_000
RANGE3_SAMPLE = 2_000


def assert_matches_oracles(bitmasks, visibility_range):
    for bitmask in bitmasks:
        view = View.from_bitmask(bitmask, visibility_range)
        for direction in DIRECTIONS:
            assert connectivity_safe(view, direction) == reference_connectivity_safe(
                view, direction
            ), (bitmask, visibility_range, direction)
            assert entry_uncontested(view, direction) == reference_entry_uncontested(
                view, direction
            ), (bitmask, visibility_range, direction)


def sample_bitmasks(visibility_range, count, seed):
    """``count`` distinct seeded views, with an occupancy density per draw.

    Mixing densities reaches both sparse views (stranded neighbours) and
    dense ones (long flood-fill paths) instead of clustering at one half.
    """
    rng = random.Random(seed)
    width = view_bit_count(visibility_range)
    seen = set()
    while len(seen) < count:
        density = rng.choice((0.15, 0.3, 0.5, 0.7))
        seen.add(sum(1 << i for i in range(width) if rng.random() < density))
    return sorted(seen)


def test_every_range1_view():
    assert_matches_oracles(range(1 << view_bit_count(1)), 1)


def test_range2_sample():
    assert_matches_oracles(sample_bitmasks(2, RANGE2_SAMPLE, seed=23), 2)


def test_range3_sample():
    bitmasks = sample_bitmasks(3, RANGE3_SAMPLE, seed=29)
    assert max(bitmasks).bit_length() > view_bit_count(2)
    assert_matches_oracles(bitmasks, 3)


@pytest.mark.parametrize("visibility_range", [1, 2, 3])
def test_occupied_targets(visibility_range):
    bits = offset_bit_table(visibility_range)
    rng = random.Random(31 + visibility_range)
    width = view_bit_count(visibility_range)
    for direction in DIRECTIONS:
        target = bits[direction.value]
        for _ in range(300):
            bitmask = rng.getrandbits(width) | target
            view = View.from_bitmask(bitmask, visibility_range)
            assert view.occupied(direction.value)
            assert connectivity_safe(view, direction) == reference_connectivity_safe(
                view, direction
            ), (bitmask, direction)
            assert entry_uncontested(view, direction) == reference_entry_uncontested(
                view, direction
            ), (bitmask, direction)


def test_lonely_and_full_views():
    for visibility_range in (1, 2, 3):
        full = (1 << view_bit_count(visibility_range)) - 1
        assert_matches_oracles([0, full], visibility_range)
        for direction in DIRECTIONS:
            assert not connectivity_safe(View.from_bitmask(0, visibility_range), direction)
            assert connectivity_safe(View.from_bitmask(full, visibility_range), direction)
