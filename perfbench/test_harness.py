"""Tests of the benchmark's own arithmetic.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_harness.py -q
"""
from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402


# --------------------------------------------------------------- percentiles

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 99) == 99
    assert harness.percentile(values, 100) == 100
    assert harness.percentile([7.0], 99) == 7.0


def test_tail_percentile_keeps_ten_samples_beyond():
    # 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
    assert harness.samples_beyond(1000, 99) == 10
    assert harness.tail_percentile(1000) == 99.0
    # 112 sweep samples: p90 has 11 beyond, p99 only 1.
    assert harness.tail_percentile(112) == 90.0
    # 999 samples: p99 would leave only 9 beyond.
    assert harness.tail_percentile(999) == 90.0
    assert harness.tail_percentile(10000) == 99.9
    # Too few samples for any percentile above the median.
    assert harness.tail_percentile(15) is None


# --------------------------------------------------------------------- spans

def test_union_length_merges_overlaps():
    assert harness.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert harness.union_length([]) == 0.0


def test_self_time_subtracts_nested_children():
    spans = [
        (1, 0, "outer", 0.0, 10.0, 1),
        (2, 1, "mid", 1.0, 5.0, 1),
        (3, 2, "leaf", 2.0, 3.0, 1),
        (4, 1, "mid", 6.0, 8.0, 1),
    ]
    own = harness.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(4.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(2.0)
    # Self times of one tree add up to its root's duration.
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        (1, 0, "submit", 0.0, 4.0, 1),
        # Two children from tasks the parent spawned: they overlap each other
        # and the second runs past the parent's end.
        (2, 1, "kernel", 1.0, 3.0, 1),
        (3, 1, "kernel", 2.0, 6.0, 1),
    ]
    own = harness.self_times(spans)
    assert own[1] == pytest.approx(1.0)  # only [0, 1) is not covered


def test_layer_totals_do_not_double_count_recursion():
    spans = [
        (1, 0, "compute", 0.0, 4.0, 1),
        (2, 1, "compute", 1.0, 3.0, 1),  # a composed algorithm calling its base
        (3, 0, "compute", 5.0, 6.0, 1),
    ]
    row = harness.layer_totals(spans)["compute"]
    assert row["calls"] == 2
    assert row["total"] == pytest.approx(5.0)
    assert row["self"] == pytest.approx(5.0)


def test_root_coverage_is_the_union_of_parentless_spans():
    spans = [
        (1, 0, "a", 0.0, 2.0, 1),
        (2, 1, "b", 0.5, 1.0, 1),
        (3, 0, "c", 1.5, 3.0, 1),
    ]
    assert harness.root_coverage(spans, 0.0, 10.0) == pytest.approx(3.0)
    # Clipped to the measured window.
    assert harness.root_coverage(spans, 1.0, 2.5) == pytest.approx(1.5)


# -------------------------------------------------------------------- ladder

def test_ladder_steps_are_at_most_ten_percent():
    rates = harness.ladder_rates(300, ceiling=600)
    assert rates[0] == 330
    previous = 300
    for rate in rates:
        assert previous < rate <= previous * 1.1
        previous = rate
    assert rates[-1] <= 600 < int(rates[-1] * 1.1)


def _step(rate, tail_ms, valid=True, failed=0, grew=False):
    return {"rate": rate, "verify_tail_ms": tail_ms, "valid": valid,
            "failed": failed, "backlog_grew": grew}


def _synthetic_curve(rates, capacity):
    """An M/M/1-shaped p99: 5 ms at no load, unbounded at ``capacity``."""
    steps = []
    for rate in rates:
        utilisation = rate / capacity
        tail = float("inf") if utilisation >= 1 else 5.0 / (1.0 - utilisation)
        steps.append(_step(rate, tail, grew=utilisation >= 1))
    return steps


def test_max_rate_search_on_a_synthetic_latency_curve():
    rates = [150, 300] + harness.ladder_rates(300, ceiling=2000)
    steps = _synthetic_curve(rates, capacity=500.0)
    # p99 <= 50 ms  <=>  rate <= 450; the last ladder rate at or below is 438.
    assert harness.max_passing_rate(steps, limit_ms=50.0) == 438
    assert harness.max_passing_rate(steps, limit_ms=5.0) is None


def test_max_rate_stops_at_the_first_failing_step():
    steps = [_step(150, 8), _step(300, 9), _step(330, 30), _step(363, 9)]
    assert harness.max_passing_rate(steps, limit_ms=10.0) == 300


def test_invalid_or_failing_steps_do_not_pass():
    assert not harness.step_passes(_step(300, 5, valid=False), 10.0)
    assert not harness.step_passes(_step(300, 5, failed=1), 10.0)
    assert not harness.step_passes(_step(300, 5, grew=True), 10.0)
    assert harness.step_passes(_step(300, 10.0), 10.0)


def test_backlog_growth_compares_completion_and_arrival_rates():
    # 1001 arrivals over 10 s; the last answer 20 ms after the last arrival.
    assert not harness.backlog_grew(1001, 0.0, 10.0, 10.02)
    # The last answer 2 s late: completions ran at ~83% of the offered rate.
    assert harness.backlog_grew(1001, 0.0, 10.0, 12.0)


# ---------------------------------------------------------------- error rate

def test_error_rate_accounting():
    assert harness.error_rate(1, 0) == 0.0
    assert harness.error_rate(1, 1) == 1.0  # a failed batch rep: 1 of 1
    assert harness.error_rate(2224, 3) == pytest.approx(3 / 2224)
    with pytest.raises(ValueError):
        harness.error_rate(0, 0)
    with pytest.raises(ValueError):
        harness.error_rate(5, 6)


# ------------------------------------------------------ host-speed scaling

def test_scaling_divides_by_the_spin_time():
    import speed

    at_nominal = speed.NOMINAL_S
    assert speed.scale(2.0, at_nominal) == pytest.approx(2.0)
    # A host running at half speed doubles both the rep and the spin.
    assert speed.scale(4.0, 2 * at_nominal) == pytest.approx(2.0)


def test_spin_median_takes_only_the_samples_in_its_window():
    import speed

    samples = [(0.0, 9.0), (1.0, 1.0), (2.0, 3.0), (3.0, 2.0), (4.0, 9.0)]
    assert speed.median_between(samples, 1.0, 3.0) == 2.0
    with pytest.raises(ValueError):
        speed.median_between(samples, 5.0, 6.0)


# ------------------------------------------------------- the metric contract

def test_result_line_metrics_match_benchmark_json():
    import json

    import run

    with open(os.path.join(os.path.dirname(run.BENCH_DIR), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    per_layer = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    reported = {(name, unit) for name, _, _, unit in run.LAYER_METRICS
                if run.in_result_line(name, unit)}
    assert reported == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "latency_ms", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
