"""Tests for the guard DSL: semantics, serialization and D6 equivariance."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import first_firing_rule
from repro.algorithms.guards import connectivity_safe, entry_uncontested
from repro.core.view import View, view_of
from repro.enumeration.polyhex import enumerate_connected_configurations
from repro.grid.directions import Direction
from repro.grid.labels import VISIBILITY_2_LABELS
from repro.grid.packing import pack_offsets
from repro.synth.dsl import ATOM_KINDS, RULE_MODES, GuardRule, RuleSet, transform_view


def make_view(*offsets):
    return View(offsets, visibility_range=2)


# ---------------------------------------------------------------------------
# Atom semantics.
# ---------------------------------------------------------------------------

def test_occ_emp_atoms():
    view = make_view((1, 0), (0, 1))
    rule_occ = GuardRule("r", ((("occ", 2, 0)),), Direction.E)
    assert rule_occ.matches(view)
    rule_emp = GuardRule("r", ((("emp", -2, 0)),), Direction.E)
    assert rule_emp.matches(view)
    assert not GuardRule("r", ((("occ", -2, 0)),), Direction.E).matches(view)


def test_view_eq_atom_matches_exactly():
    view = make_view((1, 0), (2, 0))
    bitmask = view.bitmask()
    assert GuardRule("r", (("view_eq", bitmask),), Direction.W).matches(view)
    other = make_view((1, 0))
    assert not GuardRule("r", (("view_eq", bitmask),), Direction.W).matches(other)


def test_degree_and_count_atoms():
    view = make_view((1, 0), (0, 1), (2, 0))  # two adjacent, one at distance 2
    assert GuardRule("r", (("degree_eq", 2),), Direction.E).matches(view)
    assert GuardRule("r", (("degree_ge", 2),), Direction.E).matches(view)
    assert GuardRule("r", (("degree_le", 2),), Direction.E).matches(view)
    assert not GuardRule("r", (("degree_ge", 3),), Direction.E).matches(view)
    assert GuardRule("r", (("robots_eq", 3),), Direction.E).matches(view)


def test_sym_atom():
    # A lone robot plus observer: the two-node set has symmetry order 4
    # (identity, the 180-degree rotation and two reflections).
    view = make_view((1, 0))
    assert GuardRule("r", (("sym_eq", 4),), Direction.E).matches(view)


def test_guard_atoms_follow_rule_direction():
    view = make_view((1, 0), (1, -1))
    for direction in Direction:
        rule = GuardRule("r", (("conn_safe",),), direction)
        assert rule.matches(view) == connectivity_safe(view, direction)
        rule = GuardRule("r", (("uncontested",),), direction)
        assert rule.matches(view) == entry_uncontested(view, direction)


def test_toward_centroid_atom():
    # All mass to the east: moving east approaches, moving west retreats.
    view = make_view((1, 0), (2, 0))
    assert GuardRule("r", (("toward_centroid",),), Direction.E).matches(view)
    assert not GuardRule("r", (("toward_centroid",),), Direction.W).matches(view)


def test_conjunction_requires_all_atoms():
    view = make_view((1, 0))
    rule = GuardRule("r", (("occ", 2, 0), ("emp", -2, 0), ("degree_eq", 1)), Direction.W)
    assert rule.matches(view)
    rule = GuardRule("r", (("occ", 2, 0), ("occ", -2, 0)), Direction.W)
    assert not rule.matches(view)


def test_unknown_atom_rejected():
    with pytest.raises(ValueError):
        GuardRule("r", (("nope",),), Direction.E)
    with pytest.raises(ValueError):
        GuardRule("r", (("occ", 1, 0),), Direction.E)  # label parity invalid


# ---------------------------------------------------------------------------
# Rule sets.
# ---------------------------------------------------------------------------

def test_ruleset_first_match_wins():
    view = make_view((1, 0))
    ruleset = RuleSet(
        "test",
        (
            GuardRule("first", (("occ", 2, 0),), Direction.W),
            GuardRule("second", (("occ", 2, 0),), Direction.E),
        ),
    )
    assert ruleset.explain(view) == ("first", Direction.W)
    assert ruleset.compute(make_view((0, 1))) is None
    assert ruleset.explain(make_view((0, 1))) == (None, None)


def test_ruleset_serialization_round_trip():
    ruleset = RuleSet(
        "round-trip",
        (
            GuardRule("a", (("view_eq", 33), ("conn_safe",)), Direction.NE),
            GuardRule("b", (("occ", 2, 0), ("degree_le", 3)), Direction.SW),
        ),
    )
    rebuilt = RuleSet.from_dict(ruleset.to_dict())
    assert rebuilt == ruleset
    view = make_view((1, 0), (1, -1))
    assert rebuilt.compute(view) == ruleset.compute(view)


# ---------------------------------------------------------------------------
# D6 equivariance: every atom kind commutes with the group action.
# ---------------------------------------------------------------------------

def _sample_views():
    views = []
    for config in enumerate_connected_configurations(5)[::7]:
        for pos in config.sorted_nodes():
            views.append(view_of(config, pos, 2))
    return views


_RULES_BY_KIND = {
    "occ": GuardRule("r", (("occ", 1, 1),), Direction.NE),
    "emp": GuardRule("r", (("emp", 3, -1),), Direction.SE),
    "view_eq": GuardRule("r", (("view_eq", pack_offsets([(1, 0), (0, 1)], 2)),), Direction.E),
    "degree_eq": GuardRule("r", (("degree_eq", 2),), Direction.E),
    "degree_ge": GuardRule("r", (("degree_ge", 2),), Direction.E),
    "degree_le": GuardRule("r", (("degree_le", 1),), Direction.E),
    "robots_eq": GuardRule("r", (("robots_eq", 4),), Direction.E),
    "sym_eq": GuardRule("r", (("sym_eq", 4),), Direction.E),
    "conn_safe": GuardRule("r", (("conn_safe",),), Direction.NW),
    "uncontested": GuardRule("r", (("uncontested",),), Direction.E),
    "toward_centroid": GuardRule("r", (("toward_centroid",),), Direction.SW),
}


def test_every_atom_kind_has_an_equivariance_rule():
    assert set(_RULES_BY_KIND) == set(ATOM_KINDS)


@pytest.mark.parametrize("kind", sorted(_RULES_BY_KIND))
def test_dsl_rules_are_d6_equivariant(kind):
    rule = _RULES_BY_KIND[kind]
    views = _sample_views()
    assert views
    for rotation in range(6):
        for reflect in (False, True):
            moved = rule.transformed(rotation, reflect)
            for view in views:
                assert rule.matches(view) == moved.matches(
                    transform_view(view, rotation, reflect)
                ), (kind, rotation, reflect, view)


def test_transform_round_trips_through_the_inverse():
    rule = GuardRule(
        "r", (("occ", 2, 0), ("view_eq", pack_offsets([(1, 0)], 2)), ("conn_safe",)), Direction.E
    )
    # Reflect twice = identity; rotate k then 6-k = identity.
    assert rule.transformed(0, True).transformed(0, True) == rule
    for rotation in range(6):
        assert rule.transformed(rotation, False).transformed((6 - rotation) % 6, False) == rule


# ---------------------------------------------------------------------------
# Agreement with a hand-written reference predicate on all 3652 roots.
# ---------------------------------------------------------------------------

def _reference_predicate(view):
    """Hand-written twin of _REFERENCE_RULE, using the View API directly."""
    if not view.occupied_label((2, -2)):
        return False
    if view.occupied_label((1, -1)) or view.occupied_label((-1, -1)):
        return False
    if view.adjacent_degree() > 3:
        return False
    if not connectivity_safe(view, Direction.SW):
        return False
    # toward_centroid, restated independently (count-scaled integer form).
    offsets = list(view.occupied_offsets)
    count = len(offsets) + 1
    sq = sum(o[0] for o in offsets)
    sr = sum(o[1] for o in offsets)

    def norm(q, r):
        return max(abs(q), abs(r), abs(q + r))

    dq, dr = Direction.SW.value
    return norm(count * dq - sq, count * dr - sr) <= norm(-sq, -sr)


_REFERENCE_RULE = GuardRule(
    "ref",
    (
        ("occ", 2, -2),
        ("emp", 1, -1),
        ("emp", -1, -1),
        ("degree_le", 3),
        ("conn_safe",),
        ("toward_centroid",),
    ),
    Direction.SW,
)


def test_dsl_agrees_with_reference_predicate_on_all_roots():
    """Every robot view of every canonical 7-robot root evaluates identically."""
    mismatches = 0
    checked = 0
    fired = 0
    for config in enumerate_connected_configurations(7):
        for pos in config.sorted_nodes():
            view = view_of(config, pos, 2)
            checked += 1
            expected = _reference_predicate(view)
            fired += expected
            if _REFERENCE_RULE.matches(view) != expected:
                mismatches += 1
    assert checked == 3652 * 7
    assert mismatches == 0
    assert fired > 0  # the predicate is not vacuous over the root set


# ---------------------------------------------------------------------------
# The exact-view index of RuleSet against a linear scan.
# ---------------------------------------------------------------------------

_VIEW_MASKS = st.integers(0, (1 << 18) - 1)
_LABELS = sorted(VISIBILITY_2_LABELS)


@st.composite
def _rule_sets(draw):
    """A mixed rule set plus views; rules share a few ``view_eq`` bitmasks."""
    pool = draw(st.lists(_VIEW_MASKS, min_size=1, max_size=3, unique=True))
    rules = []
    for index in range(draw(st.integers(0, 12))):
        mode = draw(st.sampled_from(RULE_MODES))
        directions = list(Direction) + ([None] if mode == "override" else [])
        direction = draw(st.sampled_from(directions))
        atoms = [("view_eq", mask) for mask in draw(st.lists(st.sampled_from(pool), max_size=2))]
        kinds = [k for k in ATOM_KINDS if k != "view_eq"]
        if direction is None:
            kinds = [k for k in kinds if k not in ("conn_safe", "uncontested", "toward_centroid")]
        for kind in draw(st.lists(st.sampled_from(kinds), max_size=2)):
            if kind in ("occ", "emp"):
                atoms.append((kind,) + draw(st.sampled_from(_LABELS)))
            elif kind == "sym_eq":
                atoms.append((kind, draw(st.sampled_from((1, 2, 4, 6, 12)))))
            elif kind in ("degree_eq", "degree_ge", "degree_le", "robots_eq"):
                atoms.append((kind, draw(st.integers(0, 6))))
            else:
                atoms.append((kind,))
        rules.append(GuardRule(f"r{index}", tuple(atoms), direction, mode=mode))
    views = pool + draw(st.lists(_VIEW_MASKS, max_size=2))
    return RuleSet("prop", tuple(rules)), [View.from_bitmask(m, 2) for m in views]


def _fired(rule):
    return (None, None) if rule is None else (rule.rule_id, rule.direction)


@settings(max_examples=300, deadline=None)
@given(_rule_sets())
def test_indexed_ruleset_equals_a_linear_scan(case):
    ruleset, views = case
    for view in views:
        assert ruleset.explain(view) == _fired(first_firing_rule(ruleset.rules, view))
        override = first_firing_rule(ruleset.rules, view, "override")
        expected = (False, None, None) if override is None else (True,) + _fired(override)
        assert ruleset.decide_override(view) == expected
        extend = first_firing_rule(ruleset.rules, view, "extend")
        assert ruleset.explain_extend(view) == _fired(extend)
        assert ruleset.compute_extend(view) == _fired(extend)[1]


def test_index_keeps_the_original_order_on_a_shared_view():
    view = make_view((1, 0), (2, 0))
    mask = view.bitmask()
    ruleset = RuleSet(
        "order",
        (
            GuardRule("general", (("occ", 4, 0), ("emp", -2, 0)), Direction.NE),
            GuardRule("exact-w", (("view_eq", mask),), Direction.W),
            GuardRule("exact-e", (("view_eq", mask),), Direction.E),
        ),
    )
    assert ruleset.explain(view) == ("general", Direction.NE)
    reordered = RuleSet("order", ruleset.rules[1:] + ruleset.rules[:1])
    assert reordered.explain(view) == ("exact-w", Direction.W)
    assert reordered.explain(make_view((1, 0), (2, 0), (-1, 0))) == (None, None)
