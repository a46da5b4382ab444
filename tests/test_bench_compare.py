"""Tests for the CI benchmark-regression gate (scripts/bench_compare.py) and
the pinned-census helpers it builds on."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.census_pins import (
    PINNED_CENSUS,
    PINNED_CENSUS_N8,
    PINNED_CENSUS_N9,
    PINNED_CENSUS_N10,
    THEOREM2_ROOTS,
    census_ok,
    census_regressions,
    pinned_census,
)

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_compare"] = module
    spec.loader.exec_module(module)
    return module


#: Neutral values for every key the gate requires candidates to record
#: (identical on both sides, so they never trip the slowdown/census checks).
_REQUIRED_DEFAULTS = {
    "exhaustive_verification_seconds": 1.0,
    "table_sweep_seconds": 1.0,
    "table_sweep_warm_seconds": 1.0,
    "n8_table_sweep_seconds": 1.0,
    "n9_table_sweep_seconds": 1.0,
    "n10_enumeration_seconds": 1.0,
    "n10_shard_build_seconds": 1.0,
    "shard_sweep_seconds": 1.0,
    "parallel_sweep_seconds": 1.0,
    "telemetry_overhead_seconds": 1.0,
    "telemetry_overhead_disabled_seconds": 1.0,
    "table_fsync_build_seconds": 1.0,
    "table_fsync_build_warm_seconds": 1.0,
    "table_ssync_build_seconds": 1.0,
    "table_ssync_build_warm_seconds": 1.0,
    "n8_fsync_build_seconds": 1.0,
    "n8_ssync_build_seconds": 1.0,
    "recovery_candidates_per_second": 50.0,
    "serve_rps": 1000.0,
    "serve_p99_seconds": 0.01,
}


def _write(directory, name, timings, required=True):
    merged = {**_REQUIRED_DEFAULTS, **timings} if required else dict(timings)
    payload = {"python": "3.x", "platform": "test", "timings": merged}
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload))
    return path


# ---------------------------------------------------------------------------
# Census pins.
# ---------------------------------------------------------------------------

def test_every_pin_covers_all_roots():
    for (algorithm, mode), census in PINNED_CENSUS.items():
        assert sum(census.values()) == THEOREM2_ROOTS, (algorithm, mode)
        assert mode in ("fsync", "ssync")


def test_pins_are_monotone_across_the_rule_set_generations():
    """Each committed repair generation strictly improves FSYNC coverage."""
    base = census_ok(pinned_census("shibata-visibility2", "fsync"))
    synth = census_ok(pinned_census("shibata-visibility2-synth", "fsync"))
    synth2 = census_ok(pinned_census("shibata-visibility2-synth2", "fsync"))
    assert base < synth < synth2


def test_census_regressions_one_sided():
    baseline = {"gathered": 1, "safe": 100, "disconnected": 10}
    assert census_regressions(baseline, dict(baseline)) == ()
    # Improvement passes.
    assert census_regressions(baseline, {"gathered": 1, "safe": 110}) == ()
    # Fewer won roots fails.
    problems = census_regressions(baseline, {"gathered": 1, "safe": 90, "disconnected": 20})
    assert any("won roots" in p for p in problems)
    # A new failure class fails even when won roots hold.
    problems = census_regressions(
        baseline, {"gathered": 1, "safe": 100, "disconnected": 10, "livelock": 1}
    )
    assert any("livelock" in p for p in problems)


# ---------------------------------------------------------------------------
# The comparison script.
# ---------------------------------------------------------------------------

def test_identical_benchmarks_pass(bench_compare, tmp_path):
    baseline, candidate = tmp_path / "a", tmp_path / "b"
    baseline.mkdir(), candidate.mkdir()
    timings = {"sweep_seconds": 1.0, "fsync_root_census": {"gathered": 1, "safe": 10}}
    for directory in (baseline, candidate):
        _write(directory, "kernel", timings)
    code = bench_compare.main(
        ["--baseline-dir", str(baseline), "--candidate-dir", str(candidate), "--names", "kernel"]
    )
    assert code == 0


def test_slowdown_beyond_tolerance_fails(bench_compare, tmp_path):
    baseline, candidate = tmp_path / "a", tmp_path / "b"
    baseline.mkdir(), candidate.mkdir()
    _write(baseline, "kernel", {"sweep_seconds": 1.0})
    _write(candidate, "kernel", {"sweep_seconds": 1.5})
    code = bench_compare.main(
        ["--baseline-dir", str(baseline), "--candidate-dir", str(candidate), "--names", "kernel"]
    )
    assert code == 1


def test_slowdown_within_tolerance_passes(bench_compare, tmp_path):
    baseline, candidate = tmp_path / "a", tmp_path / "b"
    baseline.mkdir(), candidate.mkdir()
    _write(baseline, "kernel", {"sweep_seconds": 1.0})
    _write(candidate, "kernel", {"sweep_seconds": 1.2})
    code = bench_compare.main(
        ["--baseline-dir", str(baseline), "--candidate-dir", str(candidate), "--names", "kernel"]
    )
    assert code == 0


def test_small_absolute_slowdowns_are_noise(bench_compare, tmp_path):
    """A 3x slowdown on a 10ms timing is runner noise, not a regression."""
    baseline, candidate = tmp_path / "a", tmp_path / "b"
    baseline.mkdir(), candidate.mkdir()
    _write(baseline, "kernel", {"tiny_seconds": 0.01})
    _write(candidate, "kernel", {"tiny_seconds": 0.03})
    code = bench_compare.main(
        ["--baseline-dir", str(baseline), "--candidate-dir", str(candidate), "--names", "kernel"]
    )
    assert code == 0


def test_speedup_passes(bench_compare, tmp_path):
    baseline, candidate = tmp_path / "a", tmp_path / "b"
    baseline.mkdir(), candidate.mkdir()
    _write(baseline, "kernel", {"sweep_seconds": 2.0})
    _write(candidate, "kernel", {"sweep_seconds": 0.5})
    code = bench_compare.main(
        ["--baseline-dir", str(baseline), "--candidate-dir", str(candidate), "--names", "kernel"]
    )
    assert code == 0


def test_census_regression_fails(bench_compare, tmp_path):
    baseline, candidate = tmp_path / "a", tmp_path / "b"
    baseline.mkdir(), candidate.mkdir()
    _write(baseline, "synth", {"learned_fsync_census": {"gathered": 1, "safe": 3333}})
    _write(candidate, "synth", {"learned_fsync_census": {"gathered": 1, "safe": 3300, "deadlock": 33}})
    code = bench_compare.main(
        ["--baseline-dir", str(baseline), "--candidate-dir", str(candidate), "--names", "synth"]
    )
    assert code == 1


def test_census_improvement_passes(bench_compare, tmp_path):
    baseline, candidate = tmp_path / "a", tmp_path / "b"
    baseline.mkdir(), candidate.mkdir()
    _write(baseline, "synth", {"learned_fsync_census": {"gathered": 1, "safe": 3333, "disconnected": 318}})
    _write(candidate, "synth", {"learned_fsync_census": {"gathered": 1, "safe": 3651}})
    code = bench_compare.main(
        ["--baseline-dir", str(baseline), "--candidate-dir", str(candidate), "--names", "synth"]
    )
    assert code == 0


def test_missing_gated_key_fails(bench_compare, tmp_path):
    """A benchmark that stops recording a pinned census or timing must not
    silently clear the gate."""
    baseline, candidate = tmp_path / "a", tmp_path / "b"
    baseline.mkdir(), candidate.mkdir()
    _write(baseline, "synth", {"learned_fsync_census": {"gathered": 1}, "x_seconds": 1.0})
    _write(candidate, "synth", {"x_seconds": 1.0})
    code = bench_compare.main(
        ["--baseline-dir", str(baseline), "--candidate-dir", str(candidate), "--names", "synth"]
    )
    assert code == 1
    _write(candidate, "synth", {"learned_fsync_census": {"gathered": 1}})
    code = bench_compare.main(
        ["--baseline-dir", str(baseline), "--candidate-dir", str(candidate), "--names", "synth"]
    )
    assert code == 1  # the timing key disappeared instead


def test_ignore_timings_is_advisory_but_census_still_gates(bench_compare, tmp_path):
    baseline, candidate = tmp_path / "a", tmp_path / "b"
    baseline.mkdir(), candidate.mkdir()
    _write(baseline, "kernel", {"sweep_seconds": 1.0, "c_census": {"safe": 5}})
    _write(candidate, "kernel", {"sweep_seconds": 9.0, "c_census": {"safe": 5}})
    args = ["--baseline-dir", str(baseline), "--candidate-dir", str(candidate), "--names", "kernel"]
    assert bench_compare.main(args) == 1
    assert bench_compare.main(args + ["--ignore-timings"]) == 0
    _write(candidate, "kernel", {"sweep_seconds": 9.0, "c_census": {"safe": 4, "deadlock": 1}})
    assert bench_compare.main(args + ["--ignore-timings"]) == 1


def test_throughput_drop_beyond_tolerance_fails(bench_compare, tmp_path):
    """``*_rps`` keys gate one-sidedly: only a drop fails."""
    baseline, candidate = tmp_path / "a", tmp_path / "b"
    baseline.mkdir(), candidate.mkdir()
    _write(baseline, "serve", {"serve_rps": 1000.0})
    _write(candidate, "serve", {"serve_rps": 600.0})
    args = ["--baseline-dir", str(baseline), "--candidate-dir", str(candidate), "--names", "serve"]
    assert bench_compare.main(args) == 1
    # advisory under --ignore-timings (cross-machine comparison)
    assert bench_compare.main(args + ["--ignore-timings"]) == 0


def test_throughput_improvement_and_small_drops_pass(bench_compare, tmp_path):
    baseline, candidate = tmp_path / "a", tmp_path / "b"
    baseline.mkdir(), candidate.mkdir()
    args = ["--baseline-dir", str(baseline), "--candidate-dir", str(candidate), "--names", "serve"]
    # 2x faster passes (one-sided gate)
    _write(baseline, "serve", {"serve_rps": 1000.0})
    _write(candidate, "serve", {"serve_rps": 2000.0})
    assert bench_compare.main(args) == 0
    # a drop within the 25% tolerance passes
    _write(candidate, "serve", {"serve_rps": 800.0})
    assert bench_compare.main(args) == 0
    # a huge relative drop below the absolute noise floor passes
    _write(baseline, "serve", {"serve_rps": 8.0})
    _write(candidate, "serve", {"serve_rps": 4.0})
    assert bench_compare.main(args) == 0


def test_serve_required_keys_and_p99_gate(bench_compare, tmp_path):
    """The serve artefact must record rps + p99; p99 gates like any timing."""
    baseline, candidate = tmp_path / "a", tmp_path / "b"
    baseline.mkdir(), candidate.mkdir()
    args = ["--baseline-dir", str(baseline), "--candidate-dir", str(candidate), "--names", "serve"]
    _write(baseline, "serve", {"serve_rps": 1000.0}, required=False)
    _write(candidate, "serve", {"serve_rps": 1000.0}, required=False)
    assert bench_compare.main(args) == 1  # serve_p99_seconds missing
    _write(baseline, "serve", {"serve_rps": 1000.0, "serve_p99_seconds": 0.1})
    _write(candidate, "serve", {"serve_rps": 1000.0, "serve_p99_seconds": 0.3})
    assert bench_compare.main(args) == 1  # p99 tripled past the noise floor


def test_disappearing_rps_key_fails(bench_compare, tmp_path):
    baseline, candidate = tmp_path / "a", tmp_path / "b"
    baseline.mkdir(), candidate.mkdir()
    _write(baseline, "serve", {"extra_rps": 500.0})
    _write(candidate, "serve", {})
    code = bench_compare.main(
        ["--baseline-dir", str(baseline), "--candidate-dir", str(candidate), "--names", "serve"]
    )
    assert code == 1


def test_missing_candidate_fails(bench_compare, tmp_path):
    baseline, candidate = tmp_path / "a", tmp_path / "b"
    baseline.mkdir(), candidate.mkdir()
    _write(baseline, "kernel", {"sweep_seconds": 1.0})
    code = bench_compare.main(
        ["--baseline-dir", str(baseline), "--candidate-dir", str(candidate), "--names", "kernel"]
    )
    assert code == 1


def test_multiple_names_aggregate(bench_compare, tmp_path):
    baseline, candidate = tmp_path / "a", tmp_path / "b"
    baseline.mkdir(), candidate.mkdir()
    for name in ("kernel", "explorer"):
        _write(baseline, name, {"x_seconds": 1.0})
        _write(candidate, name, {"x_seconds": 1.0})
    _write(baseline, "synth", {"x_seconds": 1.0})
    _write(candidate, "synth", {"x_seconds": 9.0})
    code = bench_compare.main(
        ["--baseline-dir", str(baseline), "--candidate-dir", str(candidate)]
    )
    assert code == 1


def test_required_table_keys_must_be_recorded(bench_compare, tmp_path):
    """A candidate that stops recording the table-kernel timings fails the
    gate even when the baseline never had them (the required-key check is
    independent of the baseline's contents)."""
    baseline, candidate = tmp_path / "a", tmp_path / "b"
    baseline.mkdir(), candidate.mkdir()
    _write(baseline, "kernel", {"x_seconds": 1.0}, required=False)
    _write(candidate, "kernel", {"x_seconds": 1.0}, required=False)
    code = bench_compare.main(
        ["--baseline-dir", str(baseline), "--candidate-dir", str(candidate), "--names", "kernel"]
    )
    assert code == 1
    _write(candidate, "kernel", {"x_seconds": 1.0})  # required keys restored
    _write(baseline, "kernel", {"x_seconds": 1.0})
    code = bench_compare.main(
        ["--baseline-dir", str(baseline), "--candidate-dir", str(candidate), "--names", "kernel"]
    )
    assert code == 0


def test_committed_baselines_compare_clean_against_themselves(bench_compare):
    """The real BENCH_*.json files pass the gate when unchanged."""
    root = _SCRIPT.parent.parent
    code = bench_compare.main(
        ["--baseline-dir", str(root), "--candidate-dir", str(root)]
    )
    assert code == 0


# ---------------------------------------------------------------------------
# The nightly census job (scripts/nightly_census.py).
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def nightly_census():
    script = _SCRIPT.parent / "nightly_census.py"
    spec = importlib.util.spec_from_file_location("nightly_census", script)
    module = importlib.util.module_from_spec(spec)
    sys.modules["nightly_census"] = module
    spec.loader.exec_module(module)
    return module


def test_nightly_census_reproduces_every_pin(nightly_census, tmp_path):
    """The full nightly job at test scale: every pinned census re-derives
    exactly from a fresh exhaustive exploration."""
    report_path = tmp_path / "census.json"
    code = nightly_census.main(["--output", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["failures"] == []
    assert len(report["checks"]) == (
        len(PINNED_CENSUS)
        + len(PINNED_CENSUS_N8)
        + len(PINNED_CENSUS_N9)
        + len(PINNED_CENSUS_N10)
    )
    assert all(check["matches"] for check in report["checks"])
    # The scale-out pins re-derive at n=8/n=9 on the table kernel and at
    # n=10 through the sharded disk tier.
    n8_checks = [check for check in report["checks"] if check["size"] == 8]
    assert len(n8_checks) == len(PINNED_CENSUS_N8)
    assert all(check["kernel"] == "table" for check in n8_checks)
    n9_checks = [check for check in report["checks"] if check["size"] == 9]
    assert len(n9_checks) == len(PINNED_CENSUS_N9)
    assert all(check["kernel"] == "table" for check in n9_checks)
    n10_checks = [check for check in report["checks"] if check["size"] == 10]
    assert len(n10_checks) == len(PINNED_CENSUS_N10)
    assert all(check["kernel"] == "sharded" for check in n10_checks)
