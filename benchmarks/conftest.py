"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one experiment of EXPERIMENTS.md (E1–E8).  The
heavy artefacts (the 3652-configuration enumeration and the exhaustive
verification of the paper's algorithm) are computed once per session and
shared across benchmark files.

Helpers are exposed as fixtures (``print_table``, ``bench_timings``,
``write_bench_baseline``) rather than imported from this module so the
benchmark files collect without package context (plain ``pytest`` from the
repository root).

At session end the timings recorded in ``bench_timings`` are written to
``BENCH_kernel.json`` at the repository root, so later PRs can track the
performance trajectory of the simulation kernel.  All baselines are written
through one normalizer — keys sorted, floats rounded to 4 decimals, no
wall-clock-of-writing field — so regenerating them diffs only where a number
really changed.
"""
from __future__ import annotations

import gc
import glob
import json
import platform
import time
from pathlib import Path
from typing import Dict

import pytest

from repro.algorithms.visibility2 import ShibataGatheringAlgorithm
from repro.analysis.verification import VerificationReport, verify_configurations
from repro.enumeration.polyhex import (
    canonical_positions,
    canonical_shapes,
    enumerate_connected_configurations,
)

#: Timings recorded during the session, dumped to BENCH_kernel.json at exit.
_TIMINGS: Dict[str, object] = {}

_REPO_ROOT = Path(__file__).resolve().parent.parent
_BASELINE_PATH = _REPO_ROOT / "BENCH_kernel.json"


def _normalized(value):
    """Stable-diff form: sorted keys, floats rounded to 4 decimals."""
    if isinstance(value, float):
        return round(value, 4)
    if isinstance(value, dict):
        return {key: _normalized(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_normalized(item) for item in value]
    return value


def write_baseline(path: Path, timings: Dict[str, object]) -> None:
    """Persist one BENCH_*.json baseline in the stable-diff format."""
    payload = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "timings": _normalized(dict(timings)),
    }
    try:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError:
        pass


@pytest.fixture(autouse=True, scope="session")
def no_shared_memory_leak():
    """Fail the session if any ``repro_tbl_*`` shared-memory segment leaks."""
    before = set(glob.glob("/dev/shm/repro_tbl_*"))
    yield
    leaked = sorted(set(glob.glob("/dev/shm/repro_tbl_*")) - before)
    assert not leaked, f"leaked shared-memory segments: {leaked}"


@pytest.fixture(scope="session")
def write_bench_baseline():
    """Baseline writer fixture: ``write_bench_baseline(name, timings)``."""

    def writer(name: str, timings: Dict[str, object]) -> None:
        write_baseline(_REPO_ROOT / f"BENCH_{name}.json", timings)

    return writer


@pytest.fixture(scope="session")
def all_seven_robot_configurations():
    """The 3652 connected initial configurations of the paper (experiment E1)."""
    # tests/ runs first and fills the enumeration memo: clear it so
    # enumeration_seconds times a cold enumeration, not a cache hit, and
    # collect first so the earlier tests' garbage is not charged to it.
    canonical_positions.cache_clear()
    canonical_shapes.cache_clear()
    gc.collect()
    start = time.perf_counter()
    configurations = enumerate_connected_configurations(7)
    _TIMINGS["enumeration_seconds"] = round(time.perf_counter() - start, 4)
    _TIMINGS["enumeration_configurations"] = len(configurations)
    return configurations


@pytest.fixture(scope="session")
def paper_algorithm_report(all_seven_robot_configurations) -> VerificationReport:
    """Exhaustive verification of the transcribed Algorithm 1 (experiment E2).

    Runs on the vectorized successor-table kernel (one batched Look pass +
    functional-graph traversal); ``test_bench_kernel.py`` asserts at
    benchmark scale that the table results are byte-identical to the packed
    kernel's, so this timing tracks the fastest correct path.
    """
    start = time.perf_counter()
    report = verify_configurations(
        all_seven_robot_configurations,
        ShibataGatheringAlgorithm(),
        max_rounds=600,
        kernel="table",
    )
    _TIMINGS["exhaustive_verification_seconds"] = round(time.perf_counter() - start, 4)
    _TIMINGS["exhaustive_verification_gathered"] = report.successes
    _TIMINGS["exhaustive_verification_total"] = report.total
    return report


@pytest.fixture(scope="session")
def bench_timings() -> Dict[str, object]:
    """Mutable mapping benchmarks may add timings to; persisted at session end."""
    return _TIMINGS


def _print_table(title, rows):
    """Print a small aligned table to the benchmark log."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    keys = list(rows[0].keys())
    widths = {k: max(len(str(k)), max(len(str(r[k])) for r in rows)) for k in keys}
    print(" | ".join(str(k).ljust(widths[k]) for k in keys))
    print("-+-".join("-" * widths[k] for k in keys))
    for row in rows:
        print(" | ".join(str(row[k]).ljust(widths[k]) for k in keys))


@pytest.fixture(name="print_table", scope="session")
def print_table_fixture():
    """The table printer, as a fixture so benchmark modules need no imports."""
    return _print_table


def pytest_sessionfinish(session, exitstatus):
    """Persist the kernel timing baseline for cross-PR performance tracking.

    Only a green session that actually ran the exhaustive verification may
    rewrite the committed baseline; partial or failing runs would otherwise
    churn it with incomplete numbers.
    """
    if exitstatus != 0 or "exhaustive_verification_seconds" not in _TIMINGS:
        return
    write_baseline(_BASELINE_PATH, _TIMINGS)
