"""Counters, gauges and fixed-bucket histograms in a thread-safe registry.

The design is shaped by the parallel runner: worker processes mutate their
own process-wide registry while executing a chunk, then :func:`export_delta`
**drains** it (returns every count accumulated since the previous drain and
zeroes the registry) so the delta rides home inside the chunked-task result
and the parent :func:`merge`-s it.  Drain semantics make the serial inline
path a natural no-op — draining the parent's own registry and merging the
delta straight back restores every value exactly — so serial and parallel
sweeps share one code path and parallel totals are exact, not sampled.

Gauges are point-in-time process-local readings (e.g. the peak RSS of a
table build); they do not drain or merge.

Hot-path cost: metric handles are plain attribute holders guarded by one
uncontended registry lock, and the instrumented call sites aggregate
(one ``inc(n)`` per chunk/call, never per robot), so the enabled overhead
is a few lock acquisitions per batch.  :func:`set_enabled` swaps the
module-level accessors to shared no-op metrics for a near-zero disabled
path.
"""
from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterable, List, Optional, Tuple, Union

Number = Union[int, float]

# Default bucket upper bounds. Values above the last bound land in the
# overflow slot; values at or below the first bound (including negatives)
# land in the first bucket.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0,
)
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)


class Counter:
    """A monotonically increasing count (drains to zero on export)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time reading; process-local, never drained or merged."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self.value: Number = 0
        self._lock = lock

    def set(self, value: Number) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: Number = 1) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Fixed upper-bound buckets plus one overflow slot.

    ``counts[i]`` counts observations with ``value <= bounds[i]`` (and above
    ``bounds[i-1]``); ``counts[-1]`` is the overflow slot for values above
    ``bounds[-1]``.  Underflow (any value at or below the first bound,
    negatives included) lands in ``counts[0]``.
    """

    __slots__ = ("name", "bounds", "counts", "sum", "count", "_lock")

    def __init__(self, name: str, bounds: Iterable[float], lock: threading.Lock):
        clean = tuple(float(b) for b in bounds)
        if not clean:
            raise ValueError(f"histogram {name}: at least one bucket bound required")
        if any(b >= c for b, c in zip(clean, clean[1:])):
            raise ValueError(f"histogram {name}: bounds must be strictly increasing")
        self.name = name
        self.bounds = clean
        self.counts: List[int] = [0] * (len(clean) + 1)
        self.sum: float = 0.0
        self.count: int = 0
        self._lock = lock

    def observe(self, value: Number) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1


class _NullMetric:
    """Shared no-op stand-in returned by the accessors while disabled."""

    __slots__ = ()

    def inc(self, amount: Number = 1) -> None:
        pass

    def dec(self, amount: Number = 1) -> None:
        pass

    def set(self, value: Number) -> None:
        pass

    def observe(self, value: Number) -> None:
        pass


_NULL = _NullMetric()


class MetricsRegistry:
    """A named collection of metrics with snapshot/drain/merge."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -------------------------------------------------------------- access
    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            with self._lock:
                found = self._counters.setdefault(name, Counter(name, self._lock))
        return found

    def gauge(self, name: str) -> Gauge:
        found = self._gauges.get(name)
        if found is None:
            with self._lock:
                found = self._gauges.setdefault(name, Gauge(name, self._lock))
        return found

    def histogram(self, name: str, bounds: Optional[Iterable[float]] = None) -> Histogram:
        found = self._histograms.get(name)
        if found is None:
            with self._lock:
                found = self._histograms.setdefault(
                    name, Histogram(name, bounds or DEFAULT_SECONDS_BUCKETS, self._lock)
                )
        return found

    # ----------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A JSON-ready copy of every metric (zero-valued counters included)."""
        with self._lock:
            return {
                "counters": {name: c.value for name, c in sorted(self._counters.items())},
                "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
                "histograms": {
                    name: {
                        "bounds": list(h.bounds),
                        "counts": list(h.counts),
                        "sum": h.sum,
                        "count": h.count,
                    }
                    for name, h in sorted(self._histograms.items())
                },
            }

    def export_delta(self) -> Dict[str, Dict[str, object]]:
        """Drain counters and histograms: return them and reset to zero.

        Gauges are excluded — a process-local reading does not compose by
        addition.  Zero entries are dropped to keep pickled chunk results
        small.  Merging the returned delta into the registry it came from
        restores it exactly (the serial-path no-op round trip).
        """
        with self._lock:
            counters: Dict[str, int] = {}
            for name, c in self._counters.items():
                if c.value:
                    counters[name] = c.value
                    c.value = 0
            histograms: Dict[str, Dict[str, object]] = {}
            for name, h in self._histograms.items():
                if h.count:
                    histograms[name] = {
                        "bounds": list(h.bounds),
                        "counts": list(h.counts),
                        "sum": h.sum,
                        "count": h.count,
                    }
                    h.counts = [0] * len(h.counts)
                    h.sum = 0.0
                    h.count = 0
            return {"counters": counters, "histograms": histograms}

    def merge(self, delta: Optional[Dict[str, Dict[str, object]]]) -> None:
        """Add a drained delta (from this or another process) into this registry."""
        if not delta:
            return
        for name, value in delta.get("counters", {}).items():  # type: ignore[union-attr]
            self.counter(name).inc(int(value))  # type: ignore[arg-type]
        for name, data in delta.get("histograms", {}).items():  # type: ignore[union-attr]
            bounds = tuple(float(b) for b in data["bounds"])  # type: ignore[index]
            h = self.histogram(name, bounds)
            if h.bounds != bounds:
                raise ValueError(
                    f"histogram {name}: merge bounds {bounds} != existing {h.bounds}"
                )
            with self._lock:
                for i, c in enumerate(data["counts"]):  # type: ignore[index]
                    h.counts[i] += int(c)
                h.sum += float(data["sum"])  # type: ignore[index, arg-type]
                h.count += int(data["count"])  # type: ignore[index, arg-type]

    def reset(self) -> None:
        """Forget every metric (tests and fresh CLI runs)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# The process-wide default registry used by all instrumentation call sites.
_REGISTRY = MetricsRegistry()
_ENABLED = True


def registry() -> MetricsRegistry:
    return _REGISTRY


def enabled() -> bool:
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Toggle collection; while disabled the accessors hand out no-ops."""
    global _ENABLED
    _ENABLED = bool(flag)
    return _ENABLED


def counter(name: str) -> Counter:
    if not _ENABLED:
        return _NULL  # type: ignore[return-value]
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    if not _ENABLED:
        return _NULL  # type: ignore[return-value]
    return _REGISTRY.gauge(name)


def histogram(name: str, bounds: Optional[Iterable[float]] = None) -> Histogram:
    if not _ENABLED:
        return _NULL  # type: ignore[return-value]
    return _REGISTRY.histogram(name, bounds)


def snapshot() -> Dict[str, Dict[str, object]]:
    return _REGISTRY.snapshot()


def export_delta() -> Dict[str, Dict[str, object]]:
    return _REGISTRY.export_delta()


def merge(delta: Optional[Dict[str, Dict[str, object]]]) -> None:
    _REGISTRY.merge(delta)


def reset() -> None:
    _REGISTRY.reset()
