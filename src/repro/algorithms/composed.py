"""Pluggable rule-set composition: a base algorithm plus an extension layer.

The reconstructed guards of :mod:`repro.algorithms.visibility2` follow a
pattern the synthesis subsystem (:mod:`repro.synth`) generalizes: *never alter
a move the base rules prescribe, only add moves where the base would stay*.
:class:`ComposedAlgorithm` is that pattern as a first-class object — the base
algorithm decides first, and only when it returns ``None`` (stay) is the
extension consulted.  Additive composition preserves every execution the base
algorithm already wins: a configuration whose run never hits an extension
view behaves identically.

Extensions that expose the **override protocol** (``decide_override(view) ->
(matched, rule_id, move)``, e.g. a :class:`repro.synth.dsl.RuleSet` with
override-mode rules) additionally get a pre-base layer: when an override rule
matches, its move *replaces* whatever the base would have done — including
``move=None``, a forced stay that suppresses a printed move.  This is the
amending repair space the residual Theorem 2 failures need; it deliberately
forfeits the preserves-by-construction guarantee above, which is why the
CEGIS loop re-verifies every previously-won root before committing an
override rule.  When no override rule matches a view, the composition is
byte-identical to the additive semantics (the property tests pin this).

The extension can be anything with the compiled guard interface — an object
with ``compute(view) -> Move`` (e.g. a :class:`repro.synth.dsl.RuleSet`) or a
plain callable ``View -> Move``.
"""
from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..core.algorithm import GatheringAlgorithm, Move
from ..core.view import View

__all__ = ["ComposedAlgorithm"]

Extension = Union[Callable[[View], Move], GatheringAlgorithm]


class ComposedAlgorithm(GatheringAlgorithm):
    """Base algorithm plus an extension: additive by default, amending on top.

    Parameters
    ----------
    base:
        The algorithm whose decisions are honoured wherever no override rule
        of the extension matches.
    extension:
        Consulted before the base when it exposes ``decide_override`` (the
        override layer), and after a base stay for its additive layer; an
        object with ``compute(view)`` or a plain callable.
    name:
        Registry/trace name; defaults to ``"<base.name>+<extension name>"``.
    """

    def __init__(
        self,
        base: GatheringAlgorithm,
        extension: Extension,
        name: Optional[str] = None,
    ) -> None:
        self.base = base
        self.extension = extension
        self.visibility_range = base.visibility_range
        extension_name = getattr(extension, "name", None) or getattr(
            extension, "__name__", "extension"
        )
        self.name = name or f"{base.name}+{extension_name}"
        # The additive layer: extension rules only.  Extensions without the
        # layered protocol are treated as pure additive extensions.
        self._extension_compute: Callable[[View], Move] = getattr(
            extension, "compute_extend", None
        ) or getattr(extension, "compute", extension)
        # The override layer is bound only when the extension actually has
        # override rules, so additive-only compositions skip the extra call.
        decide = getattr(extension, "decide_override", None)
        has_overrides = getattr(extension, "has_overrides", decide is not None)
        self._decide_override = decide if (decide is not None and has_overrides) else None

    # ------------------------------------------------------------------ API
    def compute(self, view: View) -> Move:
        if self._decide_override is not None:
            matched, _, move = self._decide_override(view)
            if matched:
                return move
        move = self.base.compute(view)
        if move is not None:
            return move
        return self._extension_compute(view)

    def decide_bitmasks(self, bitmasks: Sequence[int]) -> List[Move]:
        """:meth:`compute` of every bitmask, the base layer in one batch call.

        One ``base.decide_bitmasks`` call decides the base layer of every
        view; the override layer (when bound) and, on base stays, the
        extension layer then run per view in :meth:`compute`'s order.
        """
        moves = list(self.base.decide_bitmasks(bitmasks))
        decide_override = self._decide_override
        for index, bitmask in enumerate(bitmasks):
            if decide_override is None and moves[index] is not None:
                continue
            view = View.from_bitmask(int(bitmask), self.visibility_range)
            if decide_override is not None:
                matched, _, move = decide_override(view)
                if matched:
                    moves[index] = move
                    continue
            if moves[index] is None:
                moves[index] = self._extension_compute(view)
        return moves

    def explain(self, view: View) -> Tuple[str, Move]:
        """Like the base algorithm's ``explain``: the firing rule and its move."""
        if self._decide_override is not None:
            matched, rule_id, move = self._decide_override(view)
            if matched:
                return (rule_id or "override", move)
        if hasattr(self.base, "explain"):
            rule, move = self.base.explain(view)
        else:
            move = self.base.compute(view)
            rule = "base" if move is not None else "stay"
        if move is not None:
            return (rule, move)
        if hasattr(self.extension, "explain_extend"):
            ext_rule, ext_move = self.extension.explain_extend(view)
            if ext_move is not None:
                return (ext_rule or "extension", ext_move)
            return (rule, None)
        if hasattr(self.extension, "explain"):
            ext_rule, ext_move = self.extension.explain(view)
            if ext_move is not None:
                return (ext_rule or "extension", ext_move)
            return (rule, None)
        ext_move = self._extension_compute(view)
        if ext_move is not None:
            return ("extension", ext_move)
        return (rule, None)
