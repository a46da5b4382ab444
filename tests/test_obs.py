"""Telemetry subsystem tests: metrics, tracing, reporting, and exactness.

The exactness contract is the load-bearing part: counters are *counts*,
not samples.  Parallel sweeps must merge the per-worker registry deltas
byte-exactly (a parallel run reports the same totals as a serial one),
and the CEGIS loop's counters must reconcile with the numbers the
synthesis result itself reports.
"""
import glob
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import (
    close_sink,
    configure_sink,
    get_logger,
    merge_snapshots,
    render_prometheus,
    render_text,
    run_id,
    run_manifest,
    setup_logging,
    span,
    telemetry_payload,
    validate_telemetry,
    write_telemetry,
)
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_registry():
    """Each test starts from a drained global registry and no trace sink."""
    obs.export_delta()
    yield
    close_sink()
    obs.set_enabled(True)


# ----------------------------------------------------------------- metrics
def test_counter_rejects_negative_increments():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    counter.inc()
    counter.inc(4)
    assert registry.snapshot()["counters"] == {"c": 5}
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_histogram_bucket_edges_underflow_and_overflow():
    h = MetricsRegistry().histogram("h", (1.0, 10.0))
    h.observe(-3.0)  # negative values land in the first bucket
    h.observe(0.5)
    h.observe(1.0)  # exactly on a bound: counted as <= that bound
    h.observe(5.0)
    h.observe(10.0)
    h.observe(11.0)  # past the last bound: the overflow slot
    assert h.counts == [3, 2, 1]
    assert h.count == 6
    assert h.sum == pytest.approx(24.5)


def test_histogram_rejects_non_increasing_bounds():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.histogram("h1", (1.0, 1.0))
    with pytest.raises(ValueError):
        registry.histogram("h2", (2.0, 1.0))
    # Empty bounds fall back to the default seconds buckets.
    h = registry.histogram("h3", ())
    assert h.bounds == obs.DEFAULT_SECONDS_BUCKETS


def test_empty_registry_snapshot_and_delta():
    registry = MetricsRegistry()
    assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
    assert registry.export_delta() == {"counters": {}, "histograms": {}}
    # A never-observed histogram appears in the snapshot but not the delta.
    registry.histogram("h", (1.0,))
    assert registry.snapshot()["histograms"]["h"]["count"] == 0
    assert registry.export_delta()["histograms"] == {}


def test_export_delta_drains_and_merge_restores():
    registry = MetricsRegistry()
    registry.counter("c").inc(7)
    registry.gauge("g").set(3)
    registry.histogram("h", (1.0, 10.0)).observe(2.5)
    before = registry.snapshot()

    delta = registry.export_delta()
    drained = registry.snapshot()
    assert drained["counters"]["c"] == 0
    assert drained["histograms"]["h"]["count"] == 0
    assert drained["gauges"]["g"] == 3  # gauges are process-local: not drained

    registry.merge(delta)
    assert registry.snapshot() == before
    # A second drain exports exactly what was merged back in.
    assert registry.export_delta() == delta


def test_merge_rejects_mismatched_histogram_bounds():
    left = MetricsRegistry()
    left.histogram("h", (1.0, 2.0)).observe(1.5)
    delta = left.export_delta()
    right = MetricsRegistry()
    right.histogram("h", (1.0, 3.0)).observe(1.5)
    with pytest.raises(ValueError):
        right.merge(delta)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        max_size=200,
    )
)
def test_histogram_counts_partition_observations(values):
    h = MetricsRegistry().histogram("h", (0.001, 1.0, 100.0))
    for value in values:
        h.observe(value)
    assert sum(h.counts) == h.count == len(values)
    assert h.sum == pytest.approx(sum(values), abs=1e-6)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.integers(min_value=0, max_value=1000), max_size=50),
    st.lists(st.integers(min_value=0, max_value=1000), max_size=50),
)
def test_merged_counters_are_exact_sums(worker_a, worker_b):
    parent = MetricsRegistry()
    for increments in (worker_a, worker_b):
        worker = MetricsRegistry()
        for amount in increments:
            worker.counter("work").inc(amount)
        parent.merge(worker.export_delta())
    total = sum(worker_a) + sum(worker_b)
    assert parent.snapshot()["counters"].get("work", 0) == total


def test_merge_snapshots_adds_counters_and_histograms():
    registry = MetricsRegistry()
    registry.counter("c").inc(2)
    registry.histogram("h", (1.0,)).observe(0.5)
    snap = registry.snapshot()
    doubled = merge_snapshots(snap, snap)
    assert doubled["counters"]["c"] == 4
    assert doubled["histograms"]["h"]["count"] == 2


# ----------------------------------------------------------------- tracing
def test_span_nesting_and_error_status(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    configure_sink(str(trace_path))
    with span("outer", size=7):
        with span("inner"):
            pass
    with pytest.raises(RuntimeError):
        with span("boom"):
            raise RuntimeError("nope")
    close_sink()

    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    by_name = {record["name"]: record for record in records}
    assert set(by_name) == {"outer", "inner", "boom"}
    # Spans close inner-first, and the contextvar stitches the parent chain.
    assert by_name["inner"]["parent"] == by_name["outer"]["span"]
    assert by_name["outer"]["parent"] is None
    assert by_name["outer"]["attrs"] == {"size": 7}
    assert by_name["outer"]["status"] == "ok"
    assert by_name["boom"]["status"] == "error"
    assert len({record["run"] for record in records}) == 1
    assert all(record["seconds"] >= 0 for record in records)


def test_json_logging_carries_the_run_id():
    stream = io.StringIO()
    setup_logging(level="info", json_lines=True, stream=stream)
    try:
        get_logger("obs-test").info("hello %s", "world")
        record = json.loads(stream.getvalue())
        assert record["msg"] == "hello world"
        assert record["level"] == "info"
        assert record["logger"] == "repro.obs-test"
        assert record["run"] == run_id()
    finally:
        setup_logging(level="warning")
    with pytest.raises(ValueError):
        setup_logging(level="loud")


def test_disabled_registry_drops_all_updates():
    obs.export_delta()
    obs.set_enabled(False)
    try:
        obs.counter("off.c").inc(5)
        obs.histogram("off.h", (1.0,)).observe(0.5)
        with span("off.span"):
            pass
    finally:
        obs.set_enabled(True)
    snapshot = obs.snapshot()
    assert "off.c" not in snapshot["counters"]
    assert "off.h" not in snapshot["histograms"]
    assert "span.off.span.seconds" not in snapshot["histograms"]


# --------------------------------------------------------------- reporting
def test_write_and_validate_telemetry(tmp_path):
    obs.counter("demo.ok").inc(3)
    obs.histogram("demo.h", (1.0, 2.0)).observe(1.5)
    manifest = run_manifest(
        command="test", args={"size": 7}, wall_seconds=0.5, cpu_seconds=0.4
    )
    path = tmp_path / "telemetry.json"
    payload = write_telemetry(str(path), manifest)
    assert validate_telemetry(payload) == []
    assert json.loads(path.read_text()) == payload
    assert payload["manifest"]["command"] == "test"
    assert payload["manifest"]["run_id"] == run_id()
    assert payload["metrics"]["counters"]["demo.ok"] == 3


def test_validate_telemetry_flags_corruption():
    manifest = run_manifest(command="test", args={}, wall_seconds=0, cpu_seconds=0)
    payload = telemetry_payload(manifest)
    payload["schema"] = "bogus/9"
    payload["manifest"]["run_id"] = ""
    payload["metrics"]["counters"] = {"c": -1}
    payload["metrics"]["histograms"] = {
        "h": {"bounds": [2.0, 1.0], "counts": [1], "sum": 0.0, "count": 3},
    }
    problems = validate_telemetry(payload)
    assert len(problems) >= 4
    assert any("schema" in problem for problem in problems)
    assert any("run_id" in problem for problem in problems)


def test_render_text_and_prometheus():
    obs.counter("demo.render").inc(2)
    obs.gauge("demo.gauge").set(1.5)
    obs.histogram("demo.h", (1.0,)).observe(0.5)
    text = render_text()
    assert "demo.render" in text and "demo.gauge" in text
    prom = render_prometheus()
    assert "repro_demo_render_total 2" in prom
    assert 'repro_demo_h_bucket{le="+Inf"} 1' in prom
    assert "repro_demo_h_count 1" in prom


# ------------------------------------------------- cross-process exactness
def test_parallel_sweep_counters_match_serial_exactly(monkeypatch):
    """A two-worker scheduled table sweep reports byte-identical counters.

    Workers drain their registry into every chunk result and the parent
    merges the deltas, so the merged totals must equal both the serial
    totals and the ground truth from the batch itself — counts, not
    samples.  The batch is scheduled (an FSYNC table batch is answered in
    process and never reaches a worker), and both legs start from a fresh
    algorithm instance, so the ``decision_cache.*`` counts compare like
    with like.
    """
    np = pytest.importorskip("numpy")  # noqa: F841  (table kernel needs it)
    from repro.algorithms.visibility2 import ShibataGatheringAlgorithm
    from repro.core import runner
    from repro.core.runner import run_many
    from repro.core.table_kernel import clear_table_caches
    from repro.enumeration.polyhex import enumerate_canonical_node_sets

    configurations = enumerate_canonical_node_sets(7)[::16]
    stores_before = set(glob.glob("/dev/shm/repro_tbl_*"))

    clear_table_caches()
    obs.export_delta()
    serial = run_many(
        configurations,
        algorithm=ShibataGatheringAlgorithm(),
        scheduler="round-robin:2",
        max_rounds=600,
        kernel="table",
    )
    serial_delta = obs.export_delta()

    clear_table_caches()
    monkeypatch.delitem(runner._WORKER_ALGORITHMS, "shibata-visibility2", raising=False)
    parallel = run_many(
        configurations,
        algorithm_name="shibata-visibility2",
        scheduler="round-robin:2",
        max_rounds=600,
        kernel="table",
        workers=2,
    )
    parallel_delta = obs.export_delta()

    assert parallel.results == serial.results
    for delta in (serial_delta, parallel_delta):
        counters = delta["counters"]
        # Ground truth: the batch's own tallies.
        assert counters["runner.configurations"] == len(configurations)
        for outcome, count in serial.outcome_counts().items():
            assert counters[f"runner.outcome.{outcome}"] == count
    # The runner-level counts agree between serial and parallel exactly.
    runner_keys = {
        key
        for delta in (serial_delta, parallel_delta)
        for key in delta["counters"]
        if key.startswith(("runner.", "decision_cache."))
    }
    for key in sorted(runner_keys):
        assert serial_delta["counters"].get(key, 0) == parallel_delta["counters"].get(
            key, 0
        ), key
    # The sharing lifecycle balanced: the table was published, and every
    # private table store was removed with the pool.
    assert parallel_delta["counters"]["shm.segments_published"] >= 1
    assert set(glob.glob("/dev/shm/repro_tbl_*")) == stores_before


def test_cegis_counters_reconcile_with_the_result():
    """A bounded CEGIS run's counters equal the result's own bookkeeping."""
    from repro.synth import synthesize

    obs.export_delta()
    result = synthesize(
        base_name="shibata-visibility2[minus-R3c]",
        size=5,
        max_iterations=2,
        chain_budget=100,
        max_depth=12,
        branch=4,
        ssync_validate=False,
    )
    delta = obs.export_delta()["counters"]
    assert result.candidates_evaluated > 0
    assert delta.get("cegis.candidates_tried", 0) == result.candidates_evaluated
    assert delta.get("cegis.explores", 0) == result.explores
    assert delta.get("cegis.chains_proposed", 0) >= delta.get("cegis.chains_accepted", 0)


def test_decision_pass_and_serve_startup_record_peak_rss():
    from repro.algorithms.registry import create_algorithm
    from repro.core.table_kernel import _decision_pass
    from repro.serve import GatheringService

    obs.reset()
    _decision_pass(create_algorithm("stay"), [0, 1, 2])
    assert obs.snapshot()["gauges"]["table.peak_rss_bytes"] > 0
    GatheringService(algorithms=("stay",), sizes=(2,)).startup()
    obs.reset()
    # The table is in memory now, so this start-up runs no decision pass.
    GatheringService(algorithms=("stay",), sizes=(2,)).startup()
    assert obs.snapshot()["gauges"]["table.peak_rss_bytes"] > 0
