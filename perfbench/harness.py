"""The benchmark's own arithmetic: percentiles, self time, the rate ladder.

Everything here is pure (no processes, no clocks), so ``test_harness.py`` can
check it on synthetic inputs.
"""
from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a latency summary may report, lowest first.
PERCENTILES: Tuple[float, ...] = (50.0, 90.0, 99.0, 99.9)

#: A percentile is only reported when this many samples lie beyond it.
MIN_BEYOND = 10

#: A span record: (span id, parent span id or 0, name, start, end, items).
Span = Tuple[int, int, str, float, float, int]


def _rank(count: int, p: float) -> int:
    # The epsilon keeps 99.9% of 10000 at rank 9990 despite float rounding.
    return max(1, math.ceil(p * count / 100.0 - 1e-9))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples rank above the nearest-rank percentile ``p``."""
    return count - _rank(count, p)


def tail_percentile(count: int, candidates: Iterable[float] = PERCENTILES) -> Optional[float]:
    """The highest candidate percentile with at least ``MIN_BEYOND`` samples beyond it."""
    best = None
    for p in sorted(candidates):
        if samples_beyond(count, p) >= MIN_BEYOND:
            best = p
    return best


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------

def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval first: a child started in a
    task the parent spawned may outlive it.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    bounds = {sid: (t0, t1) for sid, _, _, t0, t1, _ in spans}
    for sid, parent, _, t0, t1, _ in spans:
        if parent in bounds:
            p0, p1 = bounds[parent]
            lo, hi = max(t0, p0), min(t1, p1)
            if hi > lo:
                children[parent].append((lo, hi))
    return {
        sid: (t1 - t0) - union_length(children.get(sid, ()))
        for sid, _, _, t0, t1, _ in spans
    }


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, items, total (outermost spans only) and self time.

    A span nested inside another of the same name (recursion, a composed
    algorithm calling its base) adds to ``self`` and ``calls`` but not to
    ``total``, so a recursive layer is not counted twice.
    """
    by_id = {span[0]: span for span in spans}
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "items": 0, "total": 0.0, "self": 0.0}
    )
    for sid, parent, name, t0, t1, items in spans:
        row = out[name]
        row["self"] += own[sid]
        ancestor = by_id.get(parent)
        nested = False
        while ancestor is not None:
            if ancestor[2] == name:
                nested = True
                break
            ancestor = by_id.get(ancestor[1])
        if not nested:
            row["calls"] += 1
            row["items"] += items
            row["total"] += t1 - t0
    return dict(out)


def root_coverage(spans: Sequence[Span], start: float, end: float) -> float:
    """Seconds of ``[start, end)`` covered by spans that have no parent."""
    return union_length(
        (max(t0, start), min(t1, end))
        for _, parent, _, t0, t1, _ in spans
        if parent == 0 and t1 > start and t0 < end
    )


# ---------------------------------------------------------------------------
# Open-loop serving.
# ---------------------------------------------------------------------------

def ladder_rates(r2: float, ceiling: float, step: float = 0.10) -> List[int]:
    """Rates above ``r2``, each at most ``step`` above the last, up to ``ceiling``."""
    rates: List[int] = []
    rate = float(r2)
    while True:
        nxt = int(rate * (1.0 + step))
        if nxt <= rate:
            nxt = int(rate) + 1
        if nxt > ceiling:
            return rates
        rates.append(nxt)
        rate = nxt


def backlog_grew(offered: int, first_due: float, last_due: float, last_done: float,
                 slack: float = 0.05) -> bool:
    """Whether completions fell behind arrivals by more than ``slack``.

    Arrivals span ``last_due - first_due``; if the system keeps up, the last
    answer lands one latency after the last arrival, so completions run at the
    offered rate.  A growing queue stretches ``last_done`` instead.
    """
    if offered < 2 or last_due <= first_due:
        return False
    offered_rate = (offered - 1) / (last_due - first_due)
    achieved_rate = (offered - 1) / max(last_done - first_due, 1e-9)
    return achieved_rate < (1.0 - slack) * offered_rate


def step_passes(step: Dict, limit_ms: float) -> bool:
    """A ladder step passes when it is valid, meets the limit and kept pace.

    A request that failed counts as missing the limit, so any failure fails
    the step.
    """
    return (
        bool(step["valid"])
        and step["failed"] == 0
        and step["verify_tail_ms"] <= limit_ms
        and not step["backlog_grew"]
    )


def max_passing_rate(steps: Sequence[Dict], limit_ms: float) -> Optional[float]:
    """The highest rate of the ascending ladder before its first failing step."""
    best = None
    for step in sorted(steps, key=lambda s: s["rate"]):
        if not step_passes(step, limit_ms):
            break
        best = step["rate"]
    return best


# ---------------------------------------------------------------------------
# Failures.
# ---------------------------------------------------------------------------

def error_rate(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("error rate of no attempted operations")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted
