"""The paper's visibility-range-2 gathering algorithm (Algorithm 1).

Every robot repeats the following Compute phase:

1. **Base-node determination** (Section IV-A, :mod:`repro.algorithms.base_node`):
   the robot node with the largest x-element in the view becomes the base
   node; ties mean "wait", and the empty node ``(4, 0)`` is adopted as base
   when it is flanked by robots at ``(3, 1)`` and ``(3, -1)``.
2. **Movement rules** (Algorithm 1 of the paper): depending on the label of
   the base node — ``(2, 0)``-but-empty, ``(4, 0)``, ``(3, -1)``, ``(2, -2)``,
   ``(3, 1)``, ``(2, 2)`` or one of the "already in place" labels — the robot
   moves east-ish around the structure towards the target hexagon whose
   rightmost node is the base, with guard clauses that yield to higher
   priority robots (Fig. 50–52) and special anti-standstill behaviours
   (Fig. 53, 55–58).

The pseudocode in the paper states that a few additional guard behaviours are
omitted ("we omit the detail").  This implementation transcribes every guard
that *is* printed, and adds a small number of **reconstructed rules** in the
same style wherever the literal transcription leaves a reachable configuration
stuck; each reconstructed rule is tagged ``recon:*`` so it can be switched off
(``include_reconstructed=False``) and ablated in the E6 benchmark.  The
acceptance criterion is the paper's own: collision-free gathering from all
3652 connected initial configurations under FSYNC (experiment E2).

Rule identifiers
----------------
``R1``     lines 1–3   (base ``(2, 0)`` but empty; move east to become base)
``R2a``    line 7      (base ``(4, 0)``; move east)
``R2b``    line 8      (base ``(4, 0)``; move northeast)
``R2c``    line 9      (base ``(4, 0)``; move southeast)
``R3a``    line 13     (base ``(3, -1)``; move southeast)
``R3b``    line 14     (base ``(3, -1)``; move east)
``R3c``    line 15     (base ``(3, -1)``; anti-standstill move southwest)
``R4``     line 19     (base ``(2, -2)``; move southwest)
``R5a``    line 23     (base ``(3, 1)``; move northeast)
``R5b``    line 24     (base ``(3, 1)``; move east)
``R5c``    line 25     (base ``(3, 1)``; anti-standstill move northwest, Fig. 53)
``R6``     line 29     (base ``(2, 2)``; move northwest)
``stay``   lines 31–33 (robot already close to the base, or no base)
``recon:*``            reconstructed guards (documented in EXPERIMENTS.md)

The rule table
--------------
Every guard above is a conjunction of occupied/empty tests on the view's
Fig. 48 labels, and so is the base-node choice: base ``(3, -1)`` means
``(3, -1)`` occupied with ``(4, 0)`` and ``(3, 1)`` empty, base ``(4, 0)``
means ``(4, 0)`` occupied or the empty-``(4, 0)``-flanked exception.  So
Algorithm 1 is written here once, as :data:`RULES`: an ordered table of
:class:`Rule` entries, each a disjunction of ``(occupied_mask, empty_mask)``
clauses over the range-2 view bits with the base condition folded in.  The
first rule whose clauses match decides; ``R1:hold`` and the ``stay`` entries
are rules whose move is ``None``, and the final ``stay`` matches every view.
Each ``recon:*`` rule sits right after the printed rules of its base and
also needs :func:`~repro.algorithms.guards.connectivity_safe`; its masks
exclude every earlier rule, so it fires only where the printed pseudocode
leaves the robot idle.  :meth:`ShibataGatheringAlgorithm.explain` walks the
table for one view; :meth:`ShibataGatheringAlgorithm.decide_bitmasks`
evaluates it over an array of views, one masked NumPy pass per rule.
"""
from __future__ import annotations

from functools import reduce
from typing import FrozenSet, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..core.algorithm import GatheringAlgorithm, Move
from ..core.view import View
from ..grid.directions import Direction
from ..grid.labels import VISIBILITY_2_LABELS, Label, offset_of_label
from ..grid.packing import pack_offsets, view_bit_count
from .guards import connectivity_safe

__all__ = ["ShibataGatheringAlgorithm", "ALL_RULE_IDS", "RULES", "Rule"]

#: Every rule identifier that can be ablated via ``disabled_rules``.
ALL_RULE_IDS: Tuple[str, ...] = (
    "R1",
    "R2a",
    "R2b",
    "R2c",
    "R3a",
    "R3b",
    "R3c",
    "R4",
    "R5a",
    "R5b",
    "R5c",
    "R6",
)

#: ``(occupied_mask, empty_mask)``: every occupied bit set, every empty bit clear.
Clause = Tuple[int, int]
#: A guard in disjunctive normal form: it holds when any clause matches.
Guard = Tuple[Clause, ...]

#: Every bit of the range-2 visibility disk.
_DISK_BITS: int = (1 << view_bit_count(2)) - 1


class Rule(NamedTuple):
    """One entry of the rule table: the move of the views its guard matches."""

    rule_id: str
    move: Move
    clauses: Guard

    @property
    def family(self) -> str:
        """The identifier ablation works on (``R1`` for ``R1:hold``)."""
        return self.rule_id.split(":")[0]

    @property
    def reconstructed(self) -> bool:
        """A ``recon:*`` rule, which also needs ``connectivity_safe``."""
        return self.family == "recon"


def _mask(labels: Iterable[Label]) -> int:
    return pack_offsets([offset_of_label(label) for label in labels], 2)


def _o(*labels: Label) -> Guard:
    """Every label occupied."""
    return ((_mask(labels), 0),)


def _e(*labels: Label) -> Guard:
    """Every label empty."""
    return ((0, _mask(labels)),)


def _any(*guards: Guard) -> Guard:
    return tuple(clause for guard in guards for clause in guard)


def _all(*guards: Guard) -> Guard:
    """The conjunction, distributed over the clauses (contradictions dropped)."""

    def conjoin(left: Guard, right: Guard) -> Guard:
        return tuple(
            (lo | ro, le | re)
            for lo, le in left
            for ro, re in right
            if not (lo | ro) & (le | re)
        )

    return reduce(conjoin, guards)


#: Every label with x-element > 0 except (1,1) and (1,-1).
_EAST_OF_R1_FLANKS: Guard = _e(
    *(label for label in VISIBILITY_2_LABELS if label[0] > 0 and label not in ((1, 1), (1, -1)))
)

#: Base-node determination (Section IV-A, :mod:`repro.algorithms.base_node`)
#: as guards: the unique robot label with the largest x-element, or the empty
#: (4,0) flanked by robots at (3,1) and (3,-1).
_BASE_4_0 = _any(_o((4, 0)), _all(_e((4, 0)), _o((3, 1), (3, -1))))
_BASE_3_M1 = _all(_o((3, -1)), _e((4, 0), (3, 1)))
_BASE_3_P1 = _all(_o((3, 1)), _e((4, 0), (3, -1)))
_BASE_2_M2 = _all(_o((2, -2)), _e((4, 0), (3, 1), (3, -1), (2, 0), (2, 2)))
_BASE_2_P2 = _all(_o((2, 2)), _e((4, 0), (3, 1), (3, -1), (2, 0), (2, -2)))

#: The bits every base-node guard reads: the labels with x-element >= 2.
_BASE_BITS: int = _mask(label for label in VISIBILITY_2_LABELS if label[0] >= 2)


def _submasks(mask: int) -> List[int]:
    """Every bit pattern within ``mask``."""
    patterns = [0]
    while patterns[-1] != mask:
        patterns.append((patterns[-1] - mask) & mask)
    return patterns


#: The R1 precondition: (2,0) empty, robots at (1,1) and (1,-1), nothing else east.
_R1_GUARD = _all(_o((1, 1), (1, -1)), _EAST_OF_R1_FLANKS)

#: Algorithm 1, in evaluation order: the first rule whose guard matches decides.
RULES: Tuple[Rule, ...] = (
    # -------------------------------------------------- lines 1-3 (R1)
    # The base node would be (2,0) but the node is empty: the robots at
    # (1,1) and (1,-1) hold the maximum x-element, so this robot moves east
    # to become the base itself (Fig. 49(c)).
    Rule("R1", Direction.E, _all(
        _R1_GUARD, _any(_e((-2, 0)), _all(_o((-2, 0)), _any(_o((-1, 1)), _o((-1, -1))))),
    )),
    Rule("R1:hold", None, _R1_GUARD),
    # -------------------------------------------------- lines 5-9 (base (4,0))
    # Line 7: move east to (2,0).
    Rule("R2a", Direction.E, _all(_BASE_4_0, _e((2, 0)), _any(
        _e((-1, 1), (-2, 0), (-1, -1)),
        _all(_o((1, -1)), _e((-2, 0), (-1, 1))),
        _all(_o((1, 1)), _e((-2, 0), (-1, -1))),
        _all(_o((1, -1), (-1, -1), (-2, 0)), _e((-1, 1))),
        _all(_o((-2, 0), (-1, 1), (1, 1)), _e((-1, -1))),
    ))),
    # Line 8: move northeast to (1,1).
    Rule("R2b", Direction.NE, _all(_BASE_4_0, _o((2, 0)), _e((1, 1), (-2, 0), (-1, 1)), _any(
        _e((-1, -1), (2, 2)),
        _o((2, 2), (3, 1), (3, -1), (-2, -2)),
    ))),
    # Line 9: move southeast to (1,-1).
    Rule("R2c", Direction.SE, _all(
        _BASE_4_0,
        _o((2, 0), (1, 1)),
        _e((1, -1), (-1, -1), (-2, 0), (-1, 1), (2, -2)),
        _any(_o((1, 1)), _o((2, 2))),
    )),
    Rule("stay:4,0", None, _BASE_4_0),
    # -------------------------------------------------- lines 11-15 (base (3,-1))
    # Line 13: move southeast to (1,-1).
    Rule("R3a", Direction.SE, _all(_BASE_3_M1, _e((1, -1), (-1, -1), (0, -2)), _any(
        _e((-2, 0), (-1, 1)),
        _all(_o((-1, 1), (1, 1)), _e((0, 2))),
    ))),
    # Line 14: move east to (2,0).
    Rule("R3b", Direction.E, _all(_BASE_3_M1, _o((1, -1)), _e((2, 0), (-1, 1)), _any(
        _e((-2, 0)),
        _o((-2, 0), (-1, -1)),
    ))),
    # Line 15: anti-standstill move southwest to (-1,-1) (mirror of Fig. 53).
    Rule("R3c", Direction.SW, _all(
        _BASE_3_M1, _o((1, -1), (2, 0), (1, 1)), _e((-1, -1), (-2, 0), (-2, -2)),
    )),
    Rule("stay:3,-1", None, _BASE_3_M1),
    # -------------------------------------------------- lines 17-19 (base (2,-2))
    # Line 19: move southwest to (-1,-1).
    Rule("R4", Direction.SW, _all(_BASE_2_M2, _e((-1, -1), (-2, 0), (-3, -1), (-1, 1)))),
    # recon:R4-west — base (2,-2) with an occupied west node.  The printed
    # line 19 makes the robot wait for its western neighbour, but when the
    # entire south-eastern flank is clear the western neighbour cannot be
    # racing for the same node (its own rules would need a robot there), so
    # the robot may wrap around the tail.
    Rule("recon:R4-west", Direction.SW, _all(
        _BASE_2_M2, _o((-2, 0)), _e((-1, -1), (-3, -1), (-1, 1), (1, -1), (0, -2), (2, 0)),
    )),
    Rule("stay:2,-2", None, _BASE_2_M2),
    # -------------------------------------------------- lines 21-25 (base (3,1))
    # Line 23: move northeast to (1,1).
    Rule("R5a", Direction.NE, _all(_BASE_3_P1, _e((1, 1)), _any(
        _e((-1, 1), (-2, 0), (-1, -1)),
        _all(_o((1, -1), (-1, -1)), _e((0, -2), (-1, 1))),
    ))),
    # Line 24: move east to (2,0).
    Rule("R5b", Direction.E, _all(_BASE_3_P1, _o((1, 1)), _e((2, 0)), _any(
        _e((-2, 0), (-1, -1)),
        _all(_e((-1, -1)), _o((-2, 0), (-1, 1))),
    ))),
    # Line 25: anti-standstill move northwest to (-1,1) (Fig. 53).
    Rule("R5c", Direction.NW, _all(
        _BASE_3_P1, _o((1, 1), (2, 0), (1, -1)), _e((-1, 1), (-2, 0), (-2, 2)),
    )),
    Rule("stay:3,1", None, _BASE_3_P1),
    # -------------------------------------------------- lines 27-29 (base (2,2))
    # Line 29: move northwest to (-1,1).
    Rule("R6", Direction.NW, _all(_BASE_2_P2, _e((-1, 1), (-3, 1), (-2, 0), (-1, -1)))),
    # recon:R6-west — mirror of recon:R4-west for base (2,2).
    Rule("recon:R6-west", Direction.NW, _all(
        _BASE_2_P2, _o((-2, 0)), _e((-1, 1), (-3, 1), (-1, -1), (1, 1), (0, 2), (2, 0)),
    )),
    Rule("stay:2,2", None, _BASE_2_P2),
    # -------------------------------------------------- lines 31-33
    # The robot is already part of the target hexagon (base (0,0), (2,0),
    # (1,1) or (1,-1)) or it could not determine a base node: stay.
    Rule("stay", None, ((0, 0),)),
)


class ShibataGatheringAlgorithm(GatheringAlgorithm):
    """Gathering of seven robots with visibility range 2 (Theorem 2).

    Parameters
    ----------
    disabled_rules:
        Rule identifiers (see module docstring) whose guard should be treated
        as always false.  Used by the ablation benchmark (E6); the default
        empty set gives the full algorithm.  Disabling ``R1`` also removes
        ``R1:hold``.
    include_reconstructed:
        Whether to include the reconstructed guards that complete the
        behaviours the paper omits.  Disabling them reproduces the literal
        pseudocode only.

    Both filter :data:`RULES` once, into :attr:`rules`.
    """

    visibility_range = 2
    name = "shibata-visibility2"

    def __init__(
        self,
        disabled_rules: Iterable[str] = (),
        include_reconstructed: bool = True,
    ) -> None:
        disabled = frozenset(disabled_rules)
        unknown = disabled - set(ALL_RULE_IDS)
        if unknown:
            raise ValueError(f"unknown rule identifiers: {sorted(unknown)}")
        self.disabled_rules: FrozenSet[str] = disabled
        self.include_reconstructed = include_reconstructed
        #: The rule table this instance evaluates, in order.
        self.rules: Tuple[Rule, ...] = tuple(
            rule
            for rule in RULES
            if rule.family not in disabled and (include_reconstructed or not rule.reconstructed)
        )
        # explain's scan, per pattern of the base-node bits: only the clauses
        # that agree with the pattern can match, so a view tests those alone,
        # in table order, as (care, occupied, rule).
        self._scans = {
            pattern: [
                (occupied | empty, occupied, rule)
                for rule in self.rules
                for occupied, empty in rule.clauses
                if pattern & (occupied | empty) & _BASE_BITS == occupied & _BASE_BITS
            ]
            for pattern in _submasks(_BASE_BITS)
        }
        if disabled or not include_reconstructed:
            suffix = []
            if disabled:
                suffix.append("minus-" + "+".join(sorted(disabled)))
            if not include_reconstructed:
                suffix.append("literal")
            self.name = f"{ShibataGatheringAlgorithm.name}[{','.join(suffix)}]"

    # ------------------------------------------------------------------ API
    def compute(self, view: View) -> Move:
        return self.explain(view)[1]

    def explain(self, view: View) -> Tuple[str, Move]:
        """Like :meth:`compute` but also returns the identifier of the rule that fired."""
        if view.visibility_range != 2:
            raise ValueError("the algorithm requires visibility range 2")
        bits = view.bitmask()
        for care, occupied, rule in self._scans[bits & _BASE_BITS]:
            if bits & care == occupied and (
                not rule.reconstructed or connectivity_safe(view, rule.move)
            ):
                return (rule.rule_id, rule.move)
        raise AssertionError("the final stay rule matches every view")

    def decide_bitmasks(self, bitmasks: Sequence[int]) -> List[Move]:
        """:meth:`compute` of every range-2 view bitmask, in one array pass.

        One masked NumPy pass per rule, over the views no earlier rule took;
        ``connectivity_safe`` runs only on the views a ``recon:*`` rule's
        masks select.
        """
        bits = np.asarray(bitmasks, dtype=np.int64)
        if (bits & ~_DISK_BITS).any():
            raise ValueError("view bitmask has bits outside the range-2 visibility disk")
        chosen = np.empty(len(bits), dtype=np.intp)
        open_slots = np.arange(len(bits))
        for index, rule in enumerate(self.rules):
            open_bits = bits[open_slots]
            hit = np.zeros(len(open_slots), dtype=bool)
            for occupied, empty in rule.clauses:
                hit |= (open_bits & (occupied | empty)) == occupied
            if rule.reconstructed:
                for slot in np.flatnonzero(hit):
                    view = View.from_bitmask(int(open_bits[slot]), 2)
                    hit[slot] = connectivity_safe(view, rule.move)
            chosen[open_slots[hit]] = index
            open_slots = open_slots[~hit]
        moves = [rule.move for rule in self.rules]
        return list(map(moves.__getitem__, chosen.tolist()))
