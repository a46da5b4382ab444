"""Tests for metrics, statistics, the impossibility search, viz and serialization."""
import json

import pytest

from repro.algorithms.range1 import east_pull_table
from repro.algorithms.visibility2 import ShibataGatheringAlgorithm
from repro.analysis.impossibility import (
    default_gadget_suite,
    search_rule_space,
    simulate_with_partial_table,
)
from repro.analysis.metrics import compute_metrics, diameter_trajectory
from repro.analysis.statistics import (
    describe,
    moves_by_diameter,
    outcome_by_diameter,
    rounds_by_diameter,
    success_table,
)
from repro.analysis.verification import verify_configurations
from repro.core.algorithm import StayAlgorithm
from repro.core.configuration import Configuration, hexagon, line
from repro.core.engine import run_execution
from repro.io.serialization import (
    configuration_from_dict,
    configuration_to_dict,
    dumps,
    loads_configuration,
    report_to_dict,
    trace_to_dict,
)
from repro.viz.ascii_art import render_configuration, render_side_by_side, render_trace


# ------------------------------------------------------------------- metrics
def test_compute_metrics_on_gathering_run():
    east_line = Configuration([(i, 0) for i in range(7)])
    trace = run_execution(east_line, ShibataGatheringAlgorithm(), max_rounds=200)
    metrics = compute_metrics(trace)
    assert metrics.outcome == "gathered"
    assert metrics.final_diameter == 2
    assert metrics.initial_diameter == 6
    assert metrics.total_moves > 0
    assert metrics.max_parallel_moves >= 1
    assert metrics.as_dict()["rounds"] == trace.num_rounds


def test_diameter_trajectory_monotone_endpoints():
    east_line = Configuration([(i, 0) for i in range(7)])
    trace = run_execution(east_line, ShibataGatheringAlgorithm(), max_rounds=200)
    trajectory = diameter_trajectory(trace)
    assert trajectory[0] == 6
    assert trajectory[-1] == 2


# ---------------------------------------------------------------- statistics
def test_describe_empty_and_values():
    assert describe([])["count"] == 0
    stats = describe([1, 2, 3, 4])
    assert stats["count"] == 4
    assert stats["mean"] == pytest.approx(2.5)
    assert stats["max"] == 4


def test_grouping_by_diameter():
    report = verify_configurations([hexagon(), line(7)], ShibataGatheringAlgorithm())
    by_rounds = rounds_by_diameter(report)
    by_moves = moves_by_diameter(report)
    by_outcome = outcome_by_diameter(report)
    assert 2 in by_rounds and 2 in by_moves
    assert set(by_outcome) == {2, 6}
    table = success_table({"shibata": report})
    assert table[0]["configurations"] == 2


# ------------------------------------------------------------- impossibility
def test_simulate_with_partial_table_needs_view():
    probe = simulate_with_partial_table(line(7), {})
    assert probe.status == "needs"
    assert probe.missing_view is not None


def test_simulate_with_full_stay_table_deadlocks():
    table = {key: None for key in east_pull_table().defined_keys()}
    probe = simulate_with_partial_table(line(7), table)
    assert probe.status == "failed"
    assert probe.reason == "deadlock"


def test_simulate_gathered_configuration():
    table = {key: None for key in east_pull_table().defined_keys()}
    probe = simulate_with_partial_table(hexagon(), table)
    assert probe.status == "gathered"


def test_search_rule_space_tiny_budget_is_inconclusive():
    result = search_rule_space(max_nodes=50)
    assert result.budget_exhausted
    assert not result.refuted
    assert result.nodes_explored >= 50


def test_search_rule_space_trivial_suite_finds_survivor():
    result = search_rule_space(suite=[hexagon()], max_nodes=100)
    assert not result.refuted
    assert result.surviving_table is not None


def test_gadget_suite_contains_three_lines():
    suite = default_gadget_suite()
    assert len(suite) == 3
    assert all(len(c) == 7 and c.is_connected() for c in suite)


# ------------------------------------------------------------------ viz / io
def test_render_configuration_contains_robots():
    art = render_configuration(hexagon())
    assert art.count("●") == 7
    ascii_art = render_configuration(hexagon(), unicode_symbols=False)
    assert ascii_art.count("R") == 7


def test_render_trace_and_side_by_side():
    east_line = Configuration([(i, 0) for i in range(7)])
    trace = run_execution(east_line, ShibataGatheringAlgorithm(), max_rounds=200)
    text = render_trace(trace, max_frames=4)
    assert "outcome: gathered" in text
    stacked = render_side_by_side([hexagon(), line(3)], labels=["hex", "line"])
    assert "== hex ==" in stacked


def test_configuration_serialization_roundtrip():
    config = line(5)
    data = configuration_to_dict(config)
    assert configuration_from_dict(data) == config
    assert loads_configuration(dumps(data)) == config


def test_trace_and_report_serialization():
    trace = run_execution(hexagon(), StayAlgorithm())
    payload = trace_to_dict(trace, include_rounds=True)
    assert payload["outcome"] == "gathered"
    assert "round_records" in payload
    report = verify_configurations([hexagon(), line(7)], StayAlgorithm())
    report_payload = report_to_dict(report)
    assert report_payload["configurations"] == 2
    json.loads(dumps(report_payload))  # must be valid JSON
