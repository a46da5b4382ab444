"""Visibility-range-1 algorithms: rule tables and the paper's gadget configurations.

With visibility range 1 a robot observes only which of its six adjacent nodes
hold robots.  Because robots are uniform, oblivious and deterministic, *every*
range-1 algorithm is fully described by a **rule table**: a function from the
64 possible adjacency patterns (subsets of the six directions) to a move
(one of the six directions or "stay").

Theorem 1 of the paper states that no such table solves the gathering problem
collision-free from every connected initial configuration.  This module
provides:

* :class:`RuleTable` / :class:`RuleTableAlgorithm` — explicit range-1
  algorithms that plug into the engine,
* a collection of natural candidate tables (east-pull, pull-to-neighbours,
  clockwise drift, …) whose failures are measured in experiment E3,
* the gadget configurations of the impossibility proof (the NW–SE line of
  Fig. 4 and the zig-zag configurations of Figs. 12–13), used both by the
  tests and by the rule-space search in
  :mod:`repro.analysis.impossibility`.
"""
from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Mapping, Tuple

from ..core.algorithm import GatheringAlgorithm, Move
from ..core.configuration import Configuration
from ..core.view import View
from ..grid.coords import Coord
from ..grid.directions import DIRECTIONS, Direction

__all__ = [
    "ViewKey",
    "RuleTable",
    "RuleTableAlgorithm",
    "view_key_of",
    "all_view_keys",
    "east_pull_table",
    "centroid_pull_table",
    "clockwise_drift_table",
    "southeast_drift_table",
    "line_configuration",
    "zigzag_configuration",
    "CANDIDATE_TABLES",
]

#: A range-1 view key: the frozen set of directions towards adjacent robot nodes.
ViewKey = FrozenSet[Direction]


def view_key_of(view: View) -> ViewKey:
    """The adjacency pattern of a view (its range-1 content)."""
    return frozenset(view.adjacent_robot_directions())


def all_view_keys(include_empty: bool = False) -> List[ViewKey]:
    """All possible range-1 view keys.

    ``include_empty`` controls whether the view with no adjacent robot is
    included; in a connected configuration of at least two robots the empty
    view never occurs (and a robot seeing nobody could never act sensibly
    anyway), so it is excluded by default.
    """
    keys: List[ViewKey] = []
    for size in range(0 if include_empty else 1, 7):
        for combo in itertools.combinations(DIRECTIONS, size):
            keys.append(frozenset(combo))
    return keys


class RuleTable:
    """A deterministic mapping from range-1 view keys to moves."""

    __slots__ = ("_table", "name")

    def __init__(self, table: Mapping[ViewKey, Move], name: str = "rule-table") -> None:
        self._table: Dict[ViewKey, Move] = {frozenset(k): v for k, v in table.items()}
        self.name = name

    def move_for(self, key: ViewKey) -> Move:
        """The move prescribed for the adjacency pattern ``key`` (default: stay)."""
        return self._table.get(frozenset(key))

    def defined_keys(self) -> List[ViewKey]:
        """View keys for which the table prescribes an explicit entry."""
        return list(self._table.keys())

    def with_entry(self, key: ViewKey, move: Move) -> "RuleTable":
        """A copy of the table with one entry added or replaced."""
        new_table = dict(self._table)
        new_table[frozenset(key)] = move
        return RuleTable(new_table, name=self.name)

    def as_dict(self) -> Dict[ViewKey, Move]:
        """A copy of the underlying mapping."""
        return dict(self._table)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RuleTable(name={self.name!r}, entries={len(self._table)})"


class RuleTableAlgorithm(GatheringAlgorithm):
    """A visibility-range-1 algorithm driven by an explicit :class:`RuleTable`."""

    visibility_range = 1

    def __init__(self, table: RuleTable) -> None:
        self.table = table
        self.name = f"range1:{table.name}"

    def compute(self, view: View) -> Move:
        return self.table.move_for(view_key_of(view))


# --------------------------------------------------------------------------
# Candidate rule tables (all of them fail, as Theorem 1 predicts).
# --------------------------------------------------------------------------

def _direction_angle_order() -> List[Direction]:
    return list(DIRECTIONS)


def east_pull_table() -> RuleTable:
    """Robots with no east-side neighbour drift east towards the others.

    A robot moves east whenever it has at least one adjacent robot on its
    western half (W, NW or SW) and no adjacent robot on its eastern half; all
    other robots stay.  This is the most naive "compact towards the rightmost
    robot" rule.
    """
    table: Dict[ViewKey, Move] = {}
    west_side = {Direction.W, Direction.NW, Direction.SW}
    east_side = {Direction.E, Direction.NE, Direction.SE}
    for key in all_view_keys():
        key_set = set(key)
        if key_set & west_side and not key_set & east_side:
            table[key] = Direction.E
        else:
            table[key] = None
    return RuleTable(table, name="east-pull")


def centroid_pull_table() -> RuleTable:
    """Robots move towards the "average" direction of their adjacent robots.

    The move is the direction whose unit vector is closest to the sum of the
    unit vectors towards adjacent robots; a robot with an isolated single
    neighbour steps onto nothing (it would collide), so it stays whenever the
    preferred node is expected to be occupied (i.e. the preferred direction is
    itself an adjacent robot direction).
    """
    import math

    angles = {
        Direction.E: 0.0,
        Direction.NE: math.pi / 3,
        Direction.NW: 2 * math.pi / 3,
        Direction.W: math.pi,
        Direction.SW: 4 * math.pi / 3,
        Direction.SE: 5 * math.pi / 3,
    }
    table: Dict[ViewKey, Move] = {}
    for key in all_view_keys():
        sx = sum(math.cos(angles[d]) for d in key)
        sy = sum(math.sin(angles[d]) for d in key)
        if abs(sx) < 1e-9 and abs(sy) < 1e-9:
            table[key] = None
            continue
        target_angle = math.atan2(sy, sx) % (2 * math.pi)
        best = min(
            DIRECTIONS,
            key=lambda d: min(
                abs(angles[d] - target_angle),
                2 * math.pi - abs(angles[d] - target_angle),
            ),
        )
        table[key] = None if best in key else best
    return RuleTable(table, name="centroid-pull")


def clockwise_drift_table() -> RuleTable:
    """Each robot slides clockwise around its first adjacent robot.

    A robot with at least one adjacent robot moves to the node obtained by
    rotating its smallest-index adjacent robot direction one step clockwise,
    provided that direction is not itself towards an adjacent robot.
    """
    table: Dict[ViewKey, Move] = {}
    for key in all_view_keys():
        ordered = [d for d in DIRECTIONS if d in key]
        anchor = ordered[0]
        target = anchor.rotate_cw()
        table[key] = None if target in key else target
    return RuleTable(table, name="clockwise-drift")


def southeast_drift_table() -> RuleTable:
    """The endless-drift gadget of Figs. 12–13: chains slide southeast forever.

    Every robot whose adjacent robots all lie on the NW–SE axis moves
    southeast.  On the line configuration of Fig. 4 this is a collision-free
    execution that simply translates the whole line southeast every round, so
    the system revisits the same configuration (up to translation) forever —
    the livelock behaviour the impossibility proof exhibits in its Case 2
    (Figs. 12–13), reproduced here in its simplest form.
    """
    table: Dict[ViewKey, Move] = {}
    axis = {Direction.NW, Direction.SE}
    for key in all_view_keys():
        table[key] = Direction.SE if set(key) <= axis else None
    return RuleTable(table, name="southeast-drift")


#: The candidate tables evaluated by experiment E3.
CANDIDATE_TABLES: Tuple[RuleTable, ...] = ()


def _build_candidates() -> Tuple[RuleTable, ...]:
    return (
        east_pull_table(),
        centroid_pull_table(),
        clockwise_drift_table(),
        southeast_drift_table(),
    )


CANDIDATE_TABLES = _build_candidates()


# --------------------------------------------------------------------------
# Gadget configurations from the impossibility proof.
# --------------------------------------------------------------------------

def line_configuration(direction: Direction = Direction.SE, length: int = 7) -> Configuration:
    """The straight-line configuration of Fig. 4 (robots along one axis)."""
    node = Coord(0, 0)
    nodes = [node]
    for _ in range(length - 1):
        node = node.step(direction)
        nodes.append(node)
    return Configuration(nodes)


def zigzag_configuration(length: int = 7, start: Tuple[int, int] = (0, 0)) -> Configuration:
    """A zig-zag chain alternating SE and E steps (the Figs. 12–13 gadget shape)."""
    node = Coord(*start)
    nodes = [node]
    steps = itertools.cycle([Direction.SE, Direction.E])
    for _ in range(length - 1):
        node = node.step(next(steps))
        nodes.append(node)
    return Configuration(nodes)
