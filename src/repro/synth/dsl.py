"""A small declarative guard DSL for candidate move rules.

The rule-repair engine (:mod:`repro.synth.cegis`) needs a machine-enumerable
space of guard behaviours in the style of Algorithm 1: *"if the view looks
like this, move there"*.  This module is that space.  A
:class:`GuardRule` is a conjunction of **atoms** — predicates over the packed
2-visibility view — plus a move direction, and a :class:`RuleSet` is an
ordered list of rules compiled to the same callable interface the hand-written
algorithms use (a pure function of the :class:`~repro.core.view.View`, exactly
like :mod:`repro.algorithms.guards` and
:meth:`~repro.core.algorithm.GatheringAlgorithm.compute`).

Atoms
-----
``("occ", x, y)`` / ``("emp", x, y)``
    The node with Fig. 48 label ``(x, y)`` is a robot node / an empty node.
``("view_eq", bitmask)``
    The view equals the packed bitmask exactly (see
    :mod:`repro.grid.packing`).  This is the workhorse of synthesis: a
    deterministic algorithm *is* a function ``view bitmask -> move``, so
    exact-view rules can express any repair without touching other views.
``("degree_eq", k)`` / ``("degree_ge", k)`` / ``("degree_le", k)``
    Number of adjacent robot nodes.
``("robots_eq", k)``
    Number of visible robot nodes (excluding the observer).
``("sym_eq", k)``
    D6 symmetry order of the view including the observer's node.
``("conn_safe",)``
    :func:`repro.algorithms.guards.connectivity_safe` holds for the rule's
    move direction.
``("uncontested",)``
    :func:`repro.algorithms.guards.entry_uncontested` holds for the rule's
    move direction.
``("toward_centroid",)``
    Moving in the rule's direction does not increase the hex distance to the
    centroid of the visible robots (observer included) — the compaction
    feature the candidate generator ranks moves by.

Rule modes
----------
A rule is either an **extension** (``mode="extend"``, the default) or an
**override** (``mode="override"``).  Extension rules follow the additive
composition contract of :class:`repro.algorithms.composed.ComposedAlgorithm`:
they are consulted only where the base algorithm stays, so they provably
preserve every execution the base already wins.  Override rules are consulted
*before* the base algorithm and may replace a printed move — including with a
forced stay (``direction=None``) — which is the repair space the residual
mid-move disconnections of Theorem 2 require.  Override commits are therefore
guarded by the CEGIS won-root regression gate (:mod:`repro.synth.cegis`)
instead of by construction.

Equivariance
------------
Robots share a compass, so rules are *not* required to be symmetric — but the
DSL itself commutes with the dihedral group D6: transforming a rule with
:meth:`GuardRule.transformed` and evaluating it on the transformed view gives
the same verdict as the original rule on the original view.  The property
tests pin this for every atom kind; it is what makes serialized rules
portable across the twelve orientations of a scenario.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..algorithms.guards import connectivity_safe, entry_uncontested
from ..core.algorithm import Move
from ..core.view import View
from ..grid.coords import Coord
from ..grid.directions import Direction, direction_from_vector
from ..grid.labels import label_of_offset, offset_of_label
from ..grid.packing import pack_offsets, unpack_offsets
from ..grid.symmetry import reflect_x, rotate, symmetry_order

__all__ = [
    "ATOM_KINDS",
    "RULE_MODES",
    "Atom",
    "GuardRule",
    "RuleSet",
    "toward_centroid",
    "transform_offset",
    "transform_view",
]

#: An atom is a tagged tuple; the first element names the predicate.
Atom = Tuple[Any, ...]

#: The composition modes a rule may declare (see the module docstring).
RULE_MODES = ("extend", "override")

#: Atom kinds whose predicate depends on the rule's move direction; they are
#: meaningless for a forced-stay override rule (``direction=None``).
_DIRECTIONAL_ATOMS = ("conn_safe", "uncontested", "toward_centroid")

#: Every atom kind the DSL understands, in documentation order.
ATOM_KINDS = (
    "occ",
    "emp",
    "view_eq",
    "degree_eq",
    "degree_ge",
    "degree_le",
    "robots_eq",
    "sym_eq",
    "conn_safe",
    "uncontested",
    "toward_centroid",
)

_HOLDS: Dict[str, Callable[..., bool]] = {}


def _atom(name):
    def register(func):
        _HOLDS[name] = func
        return func

    return register


def _hex_norm(q: int, r: int) -> int:
    """Hex distance of an axial vector from the origin."""
    return max(abs(q), abs(r), abs(q + r))


def toward_centroid(view: View, direction: Direction) -> bool:
    """Whether moving in ``direction`` does not increase the centroid distance.

    The centroid is taken over the visible robot nodes plus the observer, in
    axial coordinates; distances use the hex norm, which is invariant under
    every D6 symmetry (so the atom is equivariant like the rest of the DSL).
    Both sides are scaled by the robot count so the comparison stays in exact
    integer arithmetic — floating-point rounding would break equivariance on
    ties.
    """
    offsets = list(view.occupied_offsets)
    count = len(offsets) + 1  # the observer at the origin
    sq = sum(o[0] for o in offsets)
    sr = sum(o[1] for o in offsets)
    dq, dr = direction.value
    return _hex_norm(count * dq - sq, count * dr - sr) <= _hex_norm(-sq, -sr)


@_atom("occ")
def _occ(view: View, direction: Direction, x: int, y: int) -> bool:
    return view.occupied_label((x, y))


@_atom("emp")
def _emp(view: View, direction: Direction, x: int, y: int) -> bool:
    return view.empty_label((x, y))


@_atom("view_eq")
def _view_eq(view: View, direction: Direction, bitmask: int) -> bool:
    return view.bitmask() == bitmask


@_atom("degree_eq")
def _degree_eq(view: View, direction: Direction, k: int) -> bool:
    return view.adjacent_degree() == k


@_atom("degree_ge")
def _degree_ge(view: View, direction: Direction, k: int) -> bool:
    return view.adjacent_degree() >= k


@_atom("degree_le")
def _degree_le(view: View, direction: Direction, k: int) -> bool:
    return view.adjacent_degree() <= k


@_atom("robots_eq")
def _robots_eq(view: View, direction: Direction, k: int) -> bool:
    return len(view) == k


@_atom("sym_eq")
def _sym_eq(view: View, direction: Direction, k: int) -> bool:
    nodes = set(view.occupied_offsets)
    nodes.add(Coord(0, 0))
    return symmetry_order(nodes) == k


@_atom("conn_safe")
def _conn_safe(view: View, direction: Direction) -> bool:
    return connectivity_safe(view, direction)


@_atom("uncontested")
def _uncontested(view: View, direction: Direction) -> bool:
    return entry_uncontested(view, direction)


@_atom("toward_centroid")
def _toward_centroid(view: View, direction: Direction) -> bool:
    return toward_centroid(view, direction)


# ---------------------------------------------------------------------------
# D6 transformations.
# ---------------------------------------------------------------------------

def transform_offset(offset: Tuple[int, int], rotation: int, reflect: bool) -> Coord:
    """Apply a D6 element to an axial offset (reflection first, then rotation)."""
    result = reflect_x(offset) if reflect else Coord(offset[0], offset[1])
    return rotate(result, rotation)


def transform_view(view: View, rotation: int, reflect: bool) -> View:
    """The view an observer would have after the whole scene is transformed."""
    return View(
        [transform_offset(o, rotation, reflect) for o in view.occupied_offsets],
        view.visibility_range,
    )


def _transform_atom(atom: Atom, rotation: int, reflect: bool, visibility_range: int) -> Atom:
    kind = atom[0]
    if kind in ("occ", "emp"):
        offset = offset_of_label((atom[1], atom[2]))
        label = label_of_offset(transform_offset(offset, rotation, reflect))
        return (kind, label[0], label[1])
    if kind == "view_eq":
        offsets = unpack_offsets(atom[1], visibility_range)
        moved = [transform_offset(o, rotation, reflect) for o in offsets]
        return (kind, pack_offsets(moved, visibility_range))
    # Degree, robot-count, symmetry-order and the direction-relative guards
    # are invariant: the guards follow the rule's direction, which transforms
    # alongside them.
    return atom


def _canonical_atom(atom: Any) -> Atom:
    """Validate one atom and normalize it to a plain tuple."""
    if not atom or atom[0] not in _HOLDS:
        raise ValueError(f"unknown DSL atom {atom!r}; kinds: {ATOM_KINDS}")
    kind = atom[0]
    if kind in ("occ", "emp"):
        if len(atom) != 3:
            raise ValueError(f"{kind} atom needs a label: {atom!r}")
        offset_of_label((atom[1], atom[2]))  # validates parity
        return (kind, int(atom[1]), int(atom[2]))
    if kind in ("view_eq", "degree_eq", "degree_ge", "degree_le", "robots_eq", "sym_eq"):
        if len(atom) != 2:
            raise ValueError(f"{kind} atom needs one integer argument: {atom!r}")
        return (kind, int(atom[1]))
    if len(atom) != 1:
        raise ValueError(f"{kind} atom takes no arguments: {atom!r}")
    return (kind,)


# ---------------------------------------------------------------------------
# Rules and rule sets.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GuardRule:
    """One candidate move rule: a conjunction of atoms plus a direction."""

    #: Identifier used in traces and reports (``synth:`` prefix by convention).
    rule_id: str
    #: The conjunction; the rule fires when every atom holds.
    atoms: Tuple[Atom, ...]
    #: The move the rule prescribes when it fires.  ``None`` means a forced
    #: stay and is only legal for override rules (an extension rule that stays
    #: would be indistinguishable from no rule at all).
    direction: Optional[Direction]
    #: Visibility range the atoms are interpreted over.
    visibility_range: int = 2
    #: Composition mode: ``"extend"`` (additive, consulted on base stays) or
    #: ``"override"`` (consulted before the base; may amend a printed move).
    mode: str = "extend"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "atoms", tuple(_canonical_atom(a) for a in self.atoms)
        )
        if self.mode not in RULE_MODES:
            raise ValueError(
                f"unknown rule mode {self.mode!r}; available: {RULE_MODES}"
            )
        if self.direction is None:
            if self.mode != "override":
                raise ValueError(
                    f"rule {self.rule_id!r}: direction=None (forced stay) "
                    "requires mode='override'"
                )
            directional = [a[0] for a in self.atoms if a[0] in _DIRECTIONAL_ATOMS]
            if directional:
                raise ValueError(
                    f"rule {self.rule_id!r}: atoms {directional} need a move "
                    "direction and cannot guard a forced stay"
                )

    @property
    def is_override(self) -> bool:
        """Whether the rule amends the base algorithm (``mode="override"``)."""
        return self.mode == "override"

    # -------------------------------------------------------------- semantics
    def matches(self, view: View) -> bool:
        """Whether every atom of the rule holds for ``view``."""
        return all(_HOLDS[a[0]](view, self.direction, *a[1:]) for a in self.atoms)

    # ----------------------------------------------------------- equivariance
    def transformed(self, rotation: int, reflect: bool = False) -> "GuardRule":
        """The rule after applying a D6 element to labels, masks and direction.

        For every view ``v``: ``rule.matches(v)`` iff
        ``rule.transformed(g).matches(transform_view(v, g))``.  A forced stay
        is fixed by every group element (the origin does not move).
        """
        if self.direction is None:
            direction: Optional[Direction] = None
        else:
            vector = transform_offset(self.direction.value, rotation, reflect)
            direction = direction_from_vector((vector.q, vector.r))
        return GuardRule(
            rule_id=self.rule_id,
            atoms=tuple(
                _transform_atom(a, rotation, reflect, self.visibility_range)
                for a in self.atoms
            ),
            direction=direction,
            visibility_range=self.visibility_range,
            mode=self.mode,
        )

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe lists and strings only)."""
        return {
            "rule_id": self.rule_id,
            "atoms": [list(a) for a in self.atoms],
            "direction": None if self.direction is None else self.direction.name,
            "visibility_range": self.visibility_range,
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GuardRule":
        """Invert :meth:`to_dict` (``mode`` defaults to the pre-override DSL)."""
        name = data["direction"]
        return cls(
            rule_id=str(data["rule_id"]),
            atoms=tuple(tuple(a) for a in data["atoms"]),
            direction=None if name is None else Direction[name],
            visibility_range=int(data.get("visibility_range", 2)),
            mode=str(data.get("mode", "extend")),
        )


#: One rule layer indexed for exact-view lookup: ``bitmask -> rules`` for the
#: rules with a ``view_eq`` atom on that bitmask, merged in layer order with
#: the rules that have none, plus those rules alone for every other view.
_LayerIndex = Tuple[Dict[int, Tuple[GuardRule, ...]], Tuple[GuardRule, ...]]


def _exact_view_index(rules: Tuple[GuardRule, ...]) -> _LayerIndex:
    """Index ``rules`` on their ``view_eq`` bitmasks, keeping the layer order.

    A rule with a ``view_eq`` atom can only fire on that one view, so a view
    needs to try just the rules keyed on its own bitmask plus the rules
    without such an atom; trying them in layer order keeps the first-match
    semantics of a linear scan.
    """
    exact: Dict[int, List[Tuple[int, GuardRule]]] = {}
    general: List[Tuple[int, GuardRule]] = []
    for position, rule in enumerate(rules):
        key = next((a[1] for a in rule.atoms if a[0] == "view_eq"), None)
        if key is None:
            general.append((position, rule))
        else:
            exact.setdefault(key, []).append((position, rule))
    by_view = {
        key: tuple(rule for _, rule in sorted(entries + general))
        for key, entries in exact.items()
    }
    return by_view, tuple(rule for _, rule in general)


def _fired(rule: Optional[GuardRule]) -> Tuple[Optional[str], Move]:
    return (None, None) if rule is None else (rule.rule_id, rule.direction)


@dataclass(frozen=True)
class RuleSet:
    """An ordered list of guard rules compiled to a ``View -> Move`` function.

    The first rule whose conjunction holds fires; a rule set with no firing
    rule returns ``None`` (stay), exactly like the hand-written algorithms.
    Each layer is indexed on its ``view_eq`` bitmasks the first time it is
    asked (:func:`_exact_view_index`), so a view only tries the rules that
    can fire on it.

    A rule set may mix the two composition modes.  The layered accessors
    (:meth:`decide_override`, :meth:`compute_extend`) let
    :class:`repro.algorithms.composed.ComposedAlgorithm` consult the override
    rules *before* the base algorithm and the extension rules only on base
    stays; a rule set without override rules composes exactly as before.
    """

    name: str
    rules: Tuple[GuardRule, ...] = ()

    def __len__(self) -> int:
        return len(self.rules)

    @property
    def override_rules(self) -> Tuple[GuardRule, ...]:
        """The override-mode rules, in priority order."""
        return tuple(rule for rule in self.rules if rule.is_override)

    @property
    def extend_rules(self) -> Tuple[GuardRule, ...]:
        """The extension-mode (additive) rules, in priority order."""
        return tuple(rule for rule in self.rules if not rule.is_override)

    @property
    def has_overrides(self) -> bool:
        """Whether any rule may amend a printed move of the base algorithm."""
        return any(rule.is_override for rule in self.rules)

    @cached_property
    def _layers(self) -> Dict[str, _LayerIndex]:
        return {
            "all": _exact_view_index(self.rules),
            "override": _exact_view_index(self.override_rules),
            "extend": _exact_view_index(self.extend_rules),
        }

    def _first_firing(self, layer: str, view: View) -> Optional[GuardRule]:
        """The first rule of ``layer``, in order, whose atoms all hold for ``view``."""
        by_view, general = self._layers[layer]
        for rule in by_view.get(view.bitmask(), general):
            if rule.matches(view):
                return rule
        return None

    def explain(self, view: View) -> Tuple[Optional[str], Move]:
        """``(rule_id, move)`` of the first firing rule, or ``(None, None)``."""
        return _fired(self._first_firing("all", view))

    def compute(self, view: View) -> Move:
        """The compiled callable interface: the move of the first firing rule."""
        return self.explain(view)[1]

    __call__ = compute

    # ------------------------------------------------------- layered protocol
    def decide_override(self, view: View) -> Tuple[bool, Optional[str], Move]:
        """``(matched, rule_id, move)`` of the first firing *override* rule.

        The ``matched`` flag distinguishes "no override applies" (the base
        algorithm decides) from "an override forces a stay" (``move=None``
        replaces the printed move).
        """
        rule = self._first_firing("override", view)
        return (False, None, None) if rule is None else (True,) + _fired(rule)

    def compute_extend(self, view: View) -> Move:
        """The move of the first firing *extension* rule (additive layer)."""
        return self.explain_extend(view)[1]

    def explain_extend(self, view: View) -> Tuple[Optional[str], Move]:
        """``(rule_id, move)`` of the first firing extension rule."""
        return _fired(self._first_firing("extend", view))

    def extended(self, rules: Tuple[GuardRule, ...], name: Optional[str] = None) -> "RuleSet":
        """A new rule set with ``rules`` appended (lower priority than existing)."""
        return RuleSet(name=name or self.name, rules=self.rules + tuple(rules))

    def transformed(self, rotation: int, reflect: bool = False) -> "RuleSet":
        """Transform every rule by the same D6 element."""
        return RuleSet(
            name=self.name,
            rules=tuple(r.transformed(rotation, reflect) for r in self.rules),
        )

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form of the whole rule set."""
        return {
            "name": self.name,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RuleSet":
        """Invert :meth:`to_dict`."""
        return cls(
            name=str(data["name"]),
            rules=tuple(GuardRule.from_dict(r) for r in data["rules"]),
        )
