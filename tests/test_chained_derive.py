"""Chained table deltas against one-shot derivation from the base table.

The CEGIS search derives each repair-DFS child from its parent's table and
each commit trial from the accepted composition's table, instead of
re-deriving ``base + every layer`` from the base table.  Both routes must
give byte-identical tables: the same codes, per-row arrays, lineage dirty
set and SSYNC expansions.
"""
import random

import pytest

np = pytest.importorskip("numpy")  # the table kernel is numpy-optional

from repro.algorithms import create_algorithm
from repro.core.table_kernel import successor_table
from repro.grid.directions import DIRECTIONS
from repro.synth.cegis import _trial_table

ARRAYS = (
    "codes",
    "move_code",
    "mover_bits",
    "mover_count",
    "kind",
    "succ",
    "collision_code",
)


@pytest.fixture(scope="module", params=[6, 7])
def base_table(request):
    return successor_table(create_algorithm("shibata-visibility2"), request.param)


def assert_same_bytes(left, right, label):
    assert left.dtype == right.dtype, label
    assert left.shape == right.shape, label
    assert left.tobytes() == right.tobytes(), label


def assert_same_tables(chained, one_shot, rng, same_dirty=True):
    for name in ARRAYS:
        assert_same_bytes(getattr(chained, name), getattr(one_shot, name), name)
    if same_dirty:
        assert_same_bytes(chained._ssync_dirty, one_shot._ssync_dirty, "_ssync_dirty")
    else:
        # A view changed and later changed back stays in the lineage union.
        assert np.isin(one_shot._ssync_dirty, chained._ssync_dirty).all()
    count = chained.view.count
    sample = np.array(rng.sample(range(count), min(300, count)), dtype=np.int64)
    rows = np.union1d(chained._ssync_dirty, sample)
    for left, right in zip(
        chained.expand_level(rows, "ssync"), one_shot.expand_level(rows, "ssync")
    ):
        assert_same_bytes(left, right, "expand_level")


def view_slots(table, rng):
    """``(stay views, all views)`` of the base table, shuffled by ``rng``."""
    views = table.view.unique_views.tolist()
    codes = table.codes.tolist()
    stays = [bm for bm, code in zip(views, codes) if code == 0]
    rng.shuffle(stays)
    rng.shuffle(views)
    return stays, views


def random_direction(rng, allow_stay):
    choices = list(DIRECTIONS) + ([None] if allow_stay else [])
    return rng.choice(choices)


def test_random_chains_match_one_shot(base_table):
    rng = random.Random(base_table.view.size)
    stays, views = view_slots(base_table, rng)
    for chain_length in range(1, 7):
        assigned, amended = {}, {}
        chained = base_table
        used = set()
        for _ in range(chain_length):
            additive_items, amend_items = {}, {}
            if rng.random() < 0.5:
                bitmask = next(bm for bm in stays if bm not in used)
                additive_items[bitmask] = random_direction(rng, allow_stay=False)
            else:
                bitmask = next(bm for bm in views if bm not in used)
                amend_items[bitmask] = random_direction(rng, allow_stay=True)
            used.add(bitmask)
            chained = _trial_table(chained, additive_items, amend_items, amended)
            assigned.update(additive_items)
            amended.update(amend_items)
        one_shot = base_table.derive(assigned, amended)
        assert_same_tables(chained, one_shot, rng)


def test_repair_dfs_chain_matches_one_shot(base_table):
    """The DFS route: a committed root, then one amendment per child."""
    rng = random.Random(100 + base_table.view.size)
    stays, views = view_slots(base_table, rng)
    assigned = {bm: random_direction(rng, allow_stay=False) for bm in stays[:3]}
    committed = {bm: random_direction(rng, allow_stay=True) for bm in views[:2]}
    table = base_table.derive(assigned, committed)
    extra = {}
    for bitmask in stays[3:6] + views[2:5]:
        direction = random_direction(rng, allow_stay=True)
        table = table.derive({}, {bitmask: direction})
        extra[bitmask] = direction
        one_shot = base_table.derive(assigned, {**committed, **extra})
        assert_same_tables(table, one_shot, rng)


def test_forced_stay_keeps_shadowing_an_additive_item(base_table):
    rng = random.Random(200 + base_table.view.size)
    stays, views = view_slots(base_table, rng)
    stay_set = set(stays)
    movers = [bm for bm in views if bm not in stay_set]
    for bitmask in (stays[0], movers[0]):
        amended = {bitmask: None}
        accepted = _trial_table(base_table, {}, amended, {})
        direction = random_direction(rng, allow_stay=False)
        chained = _trial_table(accepted, {bitmask: direction}, {}, amended)
        one_shot = base_table.derive({bitmask: direction}, amended)
        assert chained.codes[accepted.view.slot_of_view(bitmask)] == 0
        assert_same_tables(chained, one_shot, rng)


def test_amendment_reverting_an_additive_rule(base_table):
    """A forced stay over an additive rule restores the base code.

    The tables agree; the chained lineage keeps the view's rows in its dirty
    union (served from the table-local SSYNC memo) where the one-shot table
    sees no change at all.
    """
    rng = random.Random(300 + base_table.view.size)
    stays, _ = view_slots(base_table, rng)
    bitmask = stays[0]
    direction = random_direction(rng, allow_stay=False)
    accepted = _trial_table(base_table, {bitmask: direction}, {}, {})
    chained = _trial_table(accepted, {}, {bitmask: None}, {})
    one_shot = base_table.derive({bitmask: direction}, {bitmask: None})
    assert one_shot is base_table
    assert len(chained._ssync_dirty) > 0
    assert_same_tables(chained, one_shot, rng, same_dirty=False)
