"""Tests for base-node determination (Section IV-A / Fig. 49)."""
import pytest

from repro.algorithms.base_node import (
    BASE_MOVE_LABELS,
    BASE_STAY_LABELS,
    base_candidates,
    determine_base_label,
)
from repro.core.configuration import hexagon
from repro.core.view import View, view_of


def test_unique_maximum_becomes_base():
    # A robot east at distance 1 and another to the north-west.
    view = View([(1, 0), (-1, 2)], 2)
    assert determine_base_label(view) == (2, 0)


def test_figure_49a_base_at_far_east():
    view = View([(2, 0), (1, 0)], 2)  # robots at east and east-east
    assert determine_base_label(view) == (4, 0)


def test_figure_49b_tie_gives_no_base():
    # Robots at (2,0) and (2,-2) labels tie on the x-element.
    view = View([(1, 0), (2, -2)], 2)
    assert base_candidates(view) == [(2, -2), (2, 0)]
    assert determine_base_label(view) is None


def test_figure_49c_exception_empty_4_0():
    # (3,1) and (3,-1) are robot nodes while (4,0) is empty: base is (4,0).
    view = View([(1, 1), (2, -1)], 2)  # offsets for labels (3,1) and (3,-1)
    assert determine_base_label(view) == (4, 0)


def test_exception_does_not_apply_when_4_0_occupied():
    view = View([(1, 1), (2, -1), (2, 0)], 2)
    assert determine_base_label(view) == (4, 0)  # now it is simply the max


def test_self_is_base_when_alone_on_the_east():
    view = View([(-1, 0), (-1, 1)], 2)  # only robots to the west
    assert determine_base_label(view) == (0, 0)


def test_requires_visibility_two():
    with pytest.raises(ValueError):
        determine_base_label(View([(1, 0)], 1))


def test_stay_and_move_label_sets_are_disjoint_and_cover_positive_x():
    assert not (set(BASE_STAY_LABELS) & set(BASE_MOVE_LABELS))
    for label in BASE_MOVE_LABELS:
        assert label[0] >= 2


def test_hexagon_views_all_get_stay_or_rear_bases():
    config = hexagon()
    for position in config.sorted_nodes():
        view = view_of(config, position, 2)
        base = determine_base_label(view)
        assert base is not None
        assert base in BASE_STAY_LABELS or base in BASE_MOVE_LABELS


def test_rule_table_base_guards_match_determine_base_label_on_every_view():
    """Algorithm 1's rule table folds base-node determination into its masks.

    Each ``_BASE_*`` guard of :mod:`repro.algorithms.visibility2` must match
    a range-2 view exactly when :func:`determine_base_label` returns its
    label, on all 262,144 views, so the two statements cannot drift apart.
    """
    np = pytest.importorskip("numpy")
    from repro.algorithms import visibility2
    from repro.grid.packing import view_bit_count

    bits = np.arange(1 << view_bit_count(2), dtype=np.int64)
    labels = [determine_base_label(View.from_bitmask(int(b), 2)) for b in bits]
    guards = {
        (4, 0): visibility2._BASE_4_0,
        (3, -1): visibility2._BASE_3_M1,
        (3, 1): visibility2._BASE_3_P1,
        (2, -2): visibility2._BASE_2_M2,
        (2, 2): visibility2._BASE_2_P2,
    }
    assert set(guards) == set(BASE_MOVE_LABELS)
    for label, guard in guards.items():
        matched = np.zeros(len(bits), dtype=bool)
        for occupied, empty in guard:
            matched |= (bits & (occupied | empty)) == occupied
        expected = np.array([found == label for found in labels])
        disagree = np.flatnonzero(matched != expected)
        assert len(disagree) == 0, (label, len(disagree), [hex(b) for b in disagree[:5]])
