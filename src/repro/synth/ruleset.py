"""Rule-set materialization: assignments <-> DSL rules <-> algorithms.

The chain search (:mod:`repro.synth.search`) works on raw assignments
(``view bitmask -> direction``) because that is the fastest executable form;
the committed artefact of a synthesis run is a declarative
:class:`~repro.synth.dsl.RuleSet` serialized to JSON.  This module converts
between the two and loads the best rule set found so far, which the registry
exposes as the ``shibata-visibility2-synth`` algorithm.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..algorithms.composed import ComposedAlgorithm
from ..core.algorithm import GatheringAlgorithm, Move
from ..core.engine import decision_cache_for
from ..core.view import View
from ..grid.directions import Direction
from .dsl import GuardRule, RuleSet

__all__ = [
    "LEARNED_RULESET_PATH",
    "LEARNED_AMEND_RULESET_PATH",
    "OverrideAlgorithm",
    "overrides_to_ruleset",
    "ruleset_to_overrides",
    "ruleset_layers",
    "ruleset_algorithm",
    "load_ruleset",
    "save_ruleset",
    "learned_ruleset",
    "learned_algorithm",
    "learned_amend_ruleset",
    "learned_amend_algorithm",
]

#: The committed best-found additive repair for ``shibata-visibility2``.
LEARNED_RULESET_PATH = Path(__file__).resolve().parent / "data" / "learned_visibility2.json"

#: The committed best-found *amending* repair (additive + override rules),
#: registered as ``shibata-visibility2-synth2`` (see ROADMAP).
LEARNED_AMEND_RULESET_PATH = (
    Path(__file__).resolve().parent / "data" / "learned_visibility2_amend.json"
)

#: Raw amending assignments: ``view bitmask -> move`` where ``None`` is a
#: forced stay that suppresses the base algorithm's printed move.
Amendments = Dict[int, Optional[Direction]]


class OverrideAlgorithm(GatheringAlgorithm):
    """The search-time composition: base plus raw ``bitmask -> move`` layers.

    Functionally identical to composing the base with the exact-view rule set
    of :func:`overrides_to_ruleset`, but skips the DSL interpreter in the
    inner simulation loop.  Two layers mirror the rule modes of the DSL:

    * ``overrides`` — additive assignments, consulted only when the base
      stays (extension rules);
    * ``amendments`` — consulted *before* the base; a hit replaces the
      printed move, and a ``None`` value forces a stay (override rules).

    Base decisions are memoized through the *base* instance's decision cache,
    so thousands of trial compositions sharing one base amortize the
    expensive hand-written guard evaluation.
    """

    def __init__(
        self,
        base: GatheringAlgorithm,
        overrides: Dict[int, Direction],
        name: Optional[str] = None,
        amendments: Optional[Amendments] = None,
    ) -> None:
        self.base = base
        self.overrides = dict(overrides)
        self.amendments: Amendments = dict(amendments or {})
        self.visibility_range = base.visibility_range
        self.name = name or (
            f"{base.name}+overrides[{len(self.overrides)}"
            + (f"+{len(self.amendments)}a]" if self.amendments else "]")
        )
        # Distinguish same-named compositions with different contents in the
        # table-store fingerprint (see repro.core.sharded_tables.cache_key).
        self.cache_fingerprint = ",".join(
            [
                f"{bitmask:x}:{direction.name}"
                for bitmask, direction in sorted(self.overrides.items())
            ]
            + [
                f"{bitmask:x}!{direction.name if direction else 'STAY'}"
                for bitmask, direction in sorted(self.amendments.items())
            ]
        )

    @property
    def table_kernel_layers(self):
        """The table kernel's derivation protocol: ``(base, overrides, amendments)``.

        :func:`repro.core.table_kernel.successor_table` uses this to *derive*
        the composition's successor table from the base algorithm's via
        delta-aware invalidation (only rows touching a changed exact view are
        re-resolved) instead of rebuilding it per trial composition.
        """
        return self.base, self.overrides, self.amendments

    def compute(self, view: View) -> Move:
        bitmask = view.bitmask()
        if self.amendments and bitmask in self.amendments:
            return self.amendments[bitmask]
        cache = decision_cache_for(self.base)
        if cache is None:
            move = self.base.compute(view)
        else:
            try:
                move = cache[bitmask]
            except KeyError:
                move = self.base.compute(view)
                cache[bitmask] = move
        if move is not None:
            return move
        return self.overrides.get(bitmask)

    def decide_bitmasks(self, bitmasks: Sequence[int]) -> List[Move]:
        """:meth:`compute` of every bitmask, the base layer in one batch call.

        One ``base.decide_bitmasks`` call, then per view the amendment layer
        (which replaces the base move) and, on base stays, the overrides.
        """
        moves = list(self.base.decide_bitmasks(bitmasks))
        for index, bitmask in enumerate(map(int, bitmasks)):
            if bitmask in self.amendments:
                moves[index] = self.amendments[bitmask]
            elif moves[index] is None:
                moves[index] = self.overrides.get(bitmask)
        return moves


def overrides_to_ruleset(
    overrides: Dict[int, Direction],
    name: str,
    visibility_range: int = 2,
    amendments: Optional[Amendments] = None,
) -> RuleSet:
    """Express raw assignments as a declarative exact-view rule set.

    ``overrides`` become extension rules, ``amendments`` become override
    rules (override rules first, so the rule order documents the precedence
    the composition applies anyway).  Rules are emitted in deterministic
    (bitmask-sorted) order; exact-view conjunctions are mutually exclusive,
    so the order never changes behaviour within a mode.
    """
    amend_rules = tuple(
        GuardRule(
            rule_id=(
                f"synth:amend:{bitmask:#x}->"
                + (amendments[bitmask].name if amendments[bitmask] else "STAY")
            ),
            atoms=(("view_eq", bitmask),),
            direction=amendments[bitmask],
            visibility_range=visibility_range,
            mode="override",
        )
        for bitmask in sorted(amendments or {})
    )
    extend_rules = tuple(
        GuardRule(
            rule_id=f"synth:view:{bitmask:#x}->{overrides[bitmask].name}",
            atoms=(("view_eq", bitmask),),
            direction=overrides[bitmask],
            visibility_range=visibility_range,
        )
        for bitmask in sorted(overrides)
    )
    return RuleSet(name=name, rules=amend_rules + extend_rules)


def ruleset_to_overrides(ruleset: RuleSet) -> Dict[int, Direction]:
    """Invert :func:`overrides_to_ruleset` for pure additive exact-view sets.

    Raises
    ------
    ValueError
        If a rule is not a single ``view_eq`` conjunction (general DSL rules
        cover many views and have no unique assignment form) or the set
        contains override rules (use :func:`ruleset_layers`).
    """
    overrides, amendments = ruleset_layers(ruleset)
    if amendments:
        raise ValueError(
            f"rule set {ruleset.name!r} has {len(amendments)} override rule(s); "
            "use ruleset_layers to recover both layers"
        )
    return overrides


def ruleset_layers(ruleset: RuleSet) -> Tuple[Dict[int, Direction], Amendments]:
    """Split an exact-view rule set into ``(overrides, amendments)`` layers.

    The inverse of :func:`overrides_to_ruleset` for rule sets that may mix
    extension and override rules.  Raises :class:`ValueError` for rules that
    are not single ``view_eq`` conjunctions.
    """
    overrides: Dict[int, Direction] = {}
    amendments: Amendments = {}
    for rule in ruleset.rules:
        if len(rule.atoms) != 1 or rule.atoms[0][0] != "view_eq":
            raise ValueError(
                f"rule {rule.rule_id!r} is not an exact-view rule; "
                "cannot convert to assignments"
            )
        if rule.is_override:
            amendments[rule.atoms[0][1]] = rule.direction
        else:
            overrides[rule.atoms[0][1]] = rule.direction
    return overrides, amendments


def ruleset_algorithm(
    base: GatheringAlgorithm, ruleset: RuleSet, name: Optional[str] = None
) -> ComposedAlgorithm:
    """Compose ``base`` with a rule set under the standard additive semantics.

    The composition carries a ``cache_fingerprint`` derived from the rule-set
    content, so a table store (:func:`repro.core.sharded_tables.cache_key`)
    never serves decisions of an older rule set under the same registered
    name.
    """
    algorithm = ComposedAlgorithm(base, ruleset, name=name or f"{base.name}+{ruleset.name}")
    algorithm.cache_fingerprint = _ruleset_fingerprint(ruleset)
    return algorithm


def _ruleset_fingerprint(ruleset: RuleSet) -> str:
    import hashlib

    text = json.dumps(ruleset.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------

def save_ruleset(ruleset: RuleSet, path: Union[str, Path]) -> None:
    """Write a rule set as indented, sorted JSON (stable diffs)."""
    Path(path).write_text(
        json.dumps(ruleset.to_dict(), indent=2, sort_keys=True) + "\n"
    )


def load_ruleset(path: Union[str, Path]) -> RuleSet:
    """Load a rule set written by :func:`save_ruleset`."""
    return RuleSet.from_dict(json.loads(Path(path).read_text()))


def learned_ruleset() -> RuleSet:
    """The committed best-found repair rule set for ``shibata-visibility2``."""
    return load_ruleset(LEARNED_RULESET_PATH)


def learned_algorithm() -> ComposedAlgorithm:
    """The registered ``shibata-visibility2-synth`` algorithm.

    ``shibata-visibility2`` composed with the committed learned rule set; its
    census against the 3652-root state space is recorded in ROADMAP.md and
    pinned by the tier-1 tests.
    """
    from ..algorithms.visibility2 import ShibataGatheringAlgorithm

    return ruleset_algorithm(
        ShibataGatheringAlgorithm(),
        learned_ruleset(),
        name="shibata-visibility2-synth",
    )


def learned_amend_ruleset() -> RuleSet:
    """The committed amending repair rule set (extension + override rules)."""
    return load_ruleset(LEARNED_AMEND_RULESET_PATH)


def learned_amend_algorithm() -> ComposedAlgorithm:
    """The registered ``shibata-visibility2-synth2`` algorithm.

    ``shibata-visibility2`` composed with the committed amending rule set —
    the move-amending CEGIS result that closes the residual mid-move
    disconnections of Theorem 2.  Its census is recorded in
    :mod:`repro.analysis.census_pins` and pinned by the tier-1 tests.
    """
    from ..algorithms.visibility2 import ShibataGatheringAlgorithm

    return ruleset_algorithm(
        ShibataGatheringAlgorithm(),
        learned_amend_ruleset(),
        name="shibata-visibility2-synth2",
    )
