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
"""
from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Tuple

from ..core.algorithm import GatheringAlgorithm, Move
from ..core.view import View
from ..grid.directions import Direction
from ..grid.labels import VISIBILITY_2_LABELS, offset_of_label
from ..grid.packing import pack_offsets
from .base_node import determine_base_label
from .guards import connectivity_safe

__all__ = ["ShibataGatheringAlgorithm", "ALL_RULE_IDS"]

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

#: Range-2 view bits of every label with x-element > 0 except (1,1) and (1,-1).
_EAST_OF_R1_FLANKS: int = pack_offsets(
    [
        offset_of_label(label)
        for label in VISIBILITY_2_LABELS
        if label[0] > 0 and label not in ((1, 1), (1, -1))
    ],
    2,
)


class ShibataGatheringAlgorithm(GatheringAlgorithm):
    """Gathering of seven robots with visibility range 2 (Theorem 2).

    Parameters
    ----------
    disabled_rules:
        Rule identifiers (see module docstring) whose guard should be treated
        as always false.  Used by the ablation benchmark (E6); the default
        empty set gives the full algorithm.
    include_reconstructed:
        Whether to include the reconstructed guards that complete the
        behaviours the paper omits.  Disabling them reproduces the literal
        pseudocode only.
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
        rule, move = self._literal_rules(view)
        if not self.include_reconstructed:
            return (rule, move)
        # Reconstructed layer: additional moves for situations the printed
        # pseudocode leaves quiescent.  Moves prescribed by the printed rules
        # are never altered — the omitted behaviours are additive only.
        if move is None:
            recon = self._reconstructed_rules(view)
            if recon is not None:
                return recon
        return (rule, move)

    def _literal_rules(self, view: View) -> Tuple[str, Move]:
        """The guards exactly as printed in Algorithm 1 of the paper."""
        if view.visibility_range != 2:
            raise ValueError("the algorithm requires visibility range 2")
        o = view.occupied_label
        e = view.empty_label

        # -------------------------------------------------- lines 1-3 (R1)
        # The base node would be (2,0) but the node is empty: the robots at
        # (1,1) and (1,-1) hold the maximum x-element, so this robot moves
        # east to become the base itself (Fig. 49(c)).
        if (
            self._enabled("R1")
            and e((2, 0))
            and o((1, 1))
            and o((1, -1))
            and self._others_at_most_zero(view)
        ):
            if e((-2, 0)) or (o((-2, 0)) and (o((-1, 1)) or o((-1, -1)))):
                return ("R1", Direction.E)
            return ("R1:hold", None)

        base = determine_base_label(view)

        # -------------------------------------------------- lines 5-9 (base (4,0))
        if base == (4, 0):
            return self._base_4_0(view)
        # -------------------------------------------------- lines 11-15 (base (3,-1))
        if base == (3, -1):
            return self._base_3_m1(view)
        # -------------------------------------------------- lines 17-19 (base (2,-2))
        if base == (2, -2):
            return self._base_2_m2(view)
        # -------------------------------------------------- lines 21-25 (base (3,1))
        if base == (3, 1):
            return self._base_3_p1(view)
        # -------------------------------------------------- lines 27-29 (base (2,2))
        if base == (2, 2):
            return self._base_2_p2(view)

        # -------------------------------------------------- lines 31-33
        # The robot is already part of the target hexagon (base (0,0), (2,0),
        # (1,1) or (1,-1)) or it could not determine a base node: stay.
        return ("stay", None)

    # ------------------------------------------------------------- helpers
    def _enabled(self, rule_id: str) -> bool:
        return rule_id not in self.disabled_rules

    @staticmethod
    def _others_at_most_zero(view: View) -> bool:
        """All visible robot nodes other than (1,1) and (1,-1) have x-element <= 0."""
        return not view.bitmask() & _EAST_OF_R1_FLANKS

    # ---------------------------------------------------------- base (4,0)
    def _base_4_0(self, view: View) -> Tuple[str, Move]:
        o = view.occupied_label
        e = view.empty_label
        # Line 7: move east to (2,0).
        if (
            self._enabled("R2a")
            and e((2, 0))
            and (
                (e((-1, 1)) and e((-2, 0)) and e((-1, -1)))
                or (o((1, -1)) and e((-2, 0)) and e((-1, 1)))
                or (o((1, 1)) and e((-2, 0)) and e((-1, -1)))
                or (o((1, -1)) and o((-1, -1)) and o((-2, 0)) and e((-1, 1)))
                or (o((-2, 0)) and o((-1, 1)) and o((1, 1)) and e((-1, -1)))
            )
        ):
            return ("R2a", Direction.E)
        # Line 8: move northeast to (1,1).
        if (
            self._enabled("R2b")
            and o((2, 0))
            and e((1, 1))
            and e((-2, 0))
            and e((-1, 1))
            and (
                (e((-1, -1)) and e((2, 2)))
                or (o((2, 2)) and o((3, 1)) and o((3, -1)) and o((-2, -2)))
            )
        ):
            return ("R2b", Direction.NE)
        # Line 9: move southeast to (1,-1).
        if (
            self._enabled("R2c")
            and o((2, 0))
            and o((1, 1))
            and e((1, -1))
            and e((-1, -1))
            and e((-2, 0))
            and e((-1, 1))
            and e((2, -2))
            and (o((1, 1)) or o((2, 2)))
        ):
            return ("R2c", Direction.SE)
        return ("stay:4,0", None)

    # --------------------------------------------------------- base (3,-1)
    def _base_3_m1(self, view: View) -> Tuple[str, Move]:
        o = view.occupied_label
        e = view.empty_label
        # Line 13: move southeast to (1,-1).
        if (
            self._enabled("R3a")
            and e((1, -1))
            and e((-1, -1))
            and e((0, -2))
            and (
                (e((-2, 0)) and e((-1, 1)))
                or (o((-1, 1)) and o((1, 1)) and e((0, 2)))
            )
        ):
            return ("R3a", Direction.SE)
        # Line 14: move east to (2,0).
        if (
            self._enabled("R3b")
            and o((1, -1))
            and e((2, 0))
            and e((-1, 1))
            and (e((-2, 0)) or (o((-2, 0)) and o((-1, -1))))
        ):
            return ("R3b", Direction.E)
        # Line 15: anti-standstill move southwest to (-1,-1) (mirror of Fig. 53).
        if (
            self._enabled("R3c")
            and o((1, -1))
            and o((2, 0))
            and o((1, 1))
            and e((-1, -1))
            and e((-2, 0))
            and e((-2, -2))
        ):
            return ("R3c", Direction.SW)
        return ("stay:3,-1", None)

    # --------------------------------------------------------- base (2,-2)
    def _base_2_m2(self, view: View) -> Tuple[str, Move]:
        e = view.empty_label
        # Line 19: move southwest to (-1,-1).
        if (
            self._enabled("R4")
            and e((-1, -1))
            and e((-2, 0))
            and e((-3, -1))
            and e((-1, 1))
        ):
            return ("R4", Direction.SW)
        return ("stay:2,-2", None)

    # ---------------------------------------------------------- base (3,1)
    def _base_3_p1(self, view: View) -> Tuple[str, Move]:
        o = view.occupied_label
        e = view.empty_label
        # Line 23: move northeast to (1,1).
        if (
            self._enabled("R5a")
            and e((1, 1))
            and (
                (e((-1, 1)) and e((-2, 0)) and e((-1, -1)))
                or (o((1, -1)) and o((-1, -1)) and e((0, -2)) and e((-1, 1)))
            )
        ):
            return ("R5a", Direction.NE)
        # Line 24: move east to (2,0).
        if (
            self._enabled("R5b")
            and o((1, 1))
            and e((2, 0))
            and (
                (e((-2, 0)) and e((-1, -1)))
                or (e((-1, -1)) and o((-2, 0)) and o((-1, 1)))
            )
        ):
            return ("R5b", Direction.E)
        # Line 25: anti-standstill move northwest to (-1,1) (Fig. 53).
        if (
            self._enabled("R5c")
            and o((1, 1))
            and o((2, 0))
            and o((1, -1))
            and e((-1, 1))
            and e((-2, 0))
            and e((-2, 2))
        ):
            return ("R5c", Direction.NW)
        return ("stay:3,1", None)

    # ---------------------------------------------------------- base (2,2)
    def _base_2_p2(self, view: View) -> Tuple[str, Move]:
        e = view.empty_label
        # Line 29: move northwest to (-1,1).
        if (
            self._enabled("R6")
            and e((-1, 1))
            and e((-3, 1))
            and e((-2, 0))
            and e((-1, -1))
        ):
            return ("R6", Direction.NW)
        return ("stay:2,2", None)

    # ------------------------------------------------- reconstructed rules
    def _reconstructed_rules(self, view: View) -> Optional[Tuple[str, Move]]:
        """Behaviours the paper omits ("we omit the detail").

        Two rules, ``recon:R4-west`` and ``recon:R6-west``, each fire only
        when the printed pseudocode would leave the robot idle, and each move
        additionally passes the local connectivity check of
        :func:`~repro.algorithms.guards.connectivity_safe`.  They follow the
        same east-bound compaction strategy and the Fig. 52 yield principle
        (the more eastern of two contenders moves).  See EXPERIMENTS.md for
        the measured effect.
        """
        o = view.occupied_label
        e = view.empty_label
        base = determine_base_label(view)

        # recon:R4-west — base (2,-2) with an occupied west node.  The printed
        # line 19 makes the robot wait for its western neighbour, but when the
        # entire south-eastern flank is clear the western neighbour cannot be
        # racing for the same node (its own rules would need a robot there),
        # so the robot may wrap around the tail.
        if (
            base == (2, -2)
            and o((-2, 0))
            and e((-1, -1))
            and e((-3, -1))
            and e((-1, 1))
            and e((1, -1))
            and e((0, -2))
            and e((2, 0))
            and connectivity_safe(view, Direction.SW)
        ):
            return ("recon:R4-west", Direction.SW)

        # recon:R6-west — mirror of the previous rule for base (2,2).
        if (
            base == (2, 2)
            and o((-2, 0))
            and e((-1, 1))
            and e((-3, 1))
            and e((-1, -1))
            and e((1, 1))
            and e((0, 2))
            and e((2, 0))
            and connectivity_safe(view, Direction.NW)
        ):
            return ("recon:R6-west", Direction.NW)

        return None
