"""Memoized algorithm wrapper around the engine's decision cache.

The engine memoizes every algorithm transparently (see
:func:`repro.core.engine.decision_cache_for`); :class:`CachedAlgorithm` makes
that cache a first-class object.  Wrapping an algorithm

* shares one decision cache between the wrapper and the wrapped instance, so
  the engine's hot path and explicit :meth:`compute` calls populate the same
  mapping;
* exposes cache statistics (:attr:`hits`, :attr:`misses`,
  :meth:`cache_info`), used by the kernel benchmark to report hit rates;
* allows pre-warming (:meth:`warm`) so that a sweep can amortize the Compute
  cost of common views before timing starts.

The wrapper inherits the wrapped algorithm's ``name`` so traces and reports
are indistinguishable from the uncached runs.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

from ..core.algorithm import GatheringAlgorithm, Move
from ..core.view import View
from ..grid.directions import Direction

__all__ = ["CachedAlgorithm", "CacheInfo"]


class CacheInfo(NamedTuple):
    """Snapshot of a decision cache's effectiveness."""

    hits: int
    misses: int
    size: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CachedAlgorithm(GatheringAlgorithm):
    """Wrap an algorithm with an explicit decision cache.

    Parameters
    ----------
    inner:
        The algorithm to memoize (a pure function of the view, like every
        :class:`~repro.core.algorithm.GatheringAlgorithm`).
    """

    def __init__(self, inner: GatheringAlgorithm) -> None:
        if isinstance(inner, CachedAlgorithm):
            inner = inner.inner
        self.inner = inner
        self.visibility_range = inner.visibility_range
        self.name = inner.name
        # Share one cache with the wrapped instance so the engine's packed
        # kernel (which keys on the algorithm object it is handed, wrapper or
        # inner) always reads and writes the same mapping.
        cache = getattr(inner, "_decision_cache", None)
        if cache is None:
            cache = {}
            inner._decision_cache = cache
        self._decision_cache: Dict[int, Optional[Direction]] = cache
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ API
    def compute(self, view: View) -> Move:
        return self.decide(view.bitmask())

    def decide(self, bitmask: int) -> Move:
        """The move for the view encoded by ``bitmask`` (memoized)."""
        cache = self._decision_cache
        try:
            decision = cache[bitmask]
            self.hits += 1
            return decision
        except KeyError:
            self.misses += 1
            decision = self.inner.compute(
                View.from_bitmask(bitmask, self.visibility_range)
            )
            cache[bitmask] = decision
            return decision

    def decide_bitmasks(self, bitmasks: Sequence[int]) -> List[Move]:
        """The inner algorithm's batch decisions; each view counts as a miss.

        Unlike :meth:`decide` it neither reads nor writes the shared cache:
        its caller, the table kernel's Compute pass, looks the views up first
        and stores what comes back.
        """
        decisions = self.inner.decide_bitmasks(bitmasks)
        self.misses += len(decisions)
        return decisions

    # ------------------------------------------------------------- utilities
    def warm(self, views: Iterable[View]) -> None:
        """Populate the cache with the decisions for ``views``."""
        for view in views:
            self.decide(view.bitmask())

    def cache_info(self) -> CacheInfo:
        """Hits/misses recorded by this wrapper and the current cache size.

        The size counts every cached view, including entries added by the
        engine's internal kernel (which does not update hit counters).
        """
        return CacheInfo(hits=self.hits, misses=self.misses, size=len(self._decision_cache))

    def clear_cache(self) -> None:
        """Drop all cached decisions and reset the counters."""
        self._decision_cache.clear()
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        info = self.cache_info()
        return (
            f"<CachedAlgorithm name={self.name!r} range={self.visibility_range} "
            f"cached={info.size}>"
        )
