"""A small registry mapping algorithm names to factories.

The CLI, the examples and the benchmark harness all construct algorithms by
name through this registry so that new algorithms (e.g. user experiments) can
be plugged in without touching the drivers.
"""
from __future__ import annotations

from typing import Callable, Dict, List

from ..core.algorithm import GatheringAlgorithm, StayAlgorithm
from .baselines import FullVisibilityGreedyAlgorithm, NaiveEastAlgorithm
from .cached import CachedAlgorithm
from .range1 import CANDIDATE_TABLES, RuleTableAlgorithm
from .visibility2 import ALL_RULE_IDS, ShibataGatheringAlgorithm

__all__ = ["register_algorithm", "create_algorithm", "available_algorithms"]

_REGISTRY: Dict[str, Callable[[], GatheringAlgorithm]] = {}


def register_algorithm(name: str, factory: Callable[[], GatheringAlgorithm]) -> None:
    """Register a new algorithm factory under ``name`` (overwrites silently)."""
    _REGISTRY[name] = factory


def create_algorithm(name: str, cached: bool = False) -> GatheringAlgorithm:
    """Instantiate the algorithm registered under ``name``.

    With ``cached=True`` the instance is wrapped in
    :class:`~repro.algorithms.cached.CachedAlgorithm`, exposing the decision
    cache and its statistics explicitly (the engine memoizes every algorithm
    either way).

    Raises
    ------
    KeyError
        If no algorithm with that name is registered.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    algorithm = factory()
    if cached:
        return CachedAlgorithm(algorithm)
    return algorithm


def available_algorithms() -> List[str]:
    """Names of all registered algorithms, sorted."""
    return sorted(_REGISTRY)


def _learned_synth_algorithm() -> GatheringAlgorithm:
    """Factory for the synthesized repair of the paper's algorithm.

    ``shibata-visibility2`` composed with the committed rule set found by the
    CEGIS engine (:mod:`repro.synth`); imported lazily so the registry does
    not pull the synthesis subsystem in at import time.
    """
    from ..synth.ruleset import learned_algorithm  # late: avoids an import cycle

    return learned_algorithm()


def _learned_amend_algorithm() -> GatheringAlgorithm:
    """Factory for the move-amending repair of the paper's algorithm.

    ``shibata-visibility2`` composed with the committed amending rule set
    (additive + override rules) found by the move-amending CEGIS run; its
    census is pinned in :mod:`repro.analysis.census_pins`.
    """
    from ..synth.ruleset import learned_amend_algorithm  # late: avoids an import cycle

    return learned_amend_algorithm()


# ---------------------------------------------------------------------------
# Built-in registrations.
# ---------------------------------------------------------------------------
register_algorithm("shibata-visibility2", ShibataGatheringAlgorithm)
register_algorithm(
    "shibata-visibility2-literal",
    lambda: ShibataGatheringAlgorithm(include_reconstructed=False),
)
register_algorithm("shibata-visibility2-synth", _learned_synth_algorithm)
register_algorithm("shibata-visibility2-synth2", _learned_amend_algorithm)
# Single-rule ablations: the deleted-guard bases the synthesis subsystem
# repairs in the recovery example (and handy sweep axes on their own).
for _rule_id in ALL_RULE_IDS:
    register_algorithm(
        f"shibata-visibility2[minus-{_rule_id}]",
        lambda rule_id=_rule_id: ShibataGatheringAlgorithm(disabled_rules=[rule_id]),
    )
register_algorithm("full-visibility-greedy", FullVisibilityGreedyAlgorithm)
register_algorithm("naive-east", NaiveEastAlgorithm)
register_algorithm("stay", StayAlgorithm)
for _table in CANDIDATE_TABLES:
    register_algorithm(
        f"range1:{_table.name}",
        lambda table=_table: RuleTableAlgorithm(table),
    )
