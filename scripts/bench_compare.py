#!/usr/bin/env python
"""Benchmark-regression gate: diff fresh BENCH_*.json files against baselines.

Every benchmark session persists its timings and censuses to
``BENCH_kernel.json`` / ``BENCH_explorer.json`` / ``BENCH_synth.json`` at the
repository root, and the committed copies are the performance and
correctness baselines of record.  This script compares a freshly-generated
set against the committed one and fails (exit 1) when:

* any ``*_seconds`` timing slowed down by more than ``--max-slowdown``
  (default 25%), ignoring differences below ``--min-seconds`` so CI-runner
  noise on sub-50ms timings cannot fail a correct build; or
* any census regressed — fewer gathered+safe roots, or growth of a failure
  class (collision/livelock/deadlock/disconnected/unknown).

Censuses are a one-sided gate on purpose: an *improved* census passes here
and is then re-pinned deliberately in :mod:`repro.analysis.census_pins`.
A census or timing key that disappears from the candidate set also fails —
a benchmark that stops recording a pinned number must not clear the gate.

Wall-clock comparisons are only meaningful between runs on the same
hardware; the CI ``bench-compare`` job therefore regenerates the baseline
from the PR's base commit on the same runner for pull requests, and passes
``--ignore-timings`` (censuses still gate, slowdowns become advisory) when
comparing against the committed baselines recorded on another machine.

Usage::

    cp BENCH_*.json baseline/          # or regenerate from the base commit
    python -m pytest benchmarks -q     # regenerates BENCH_*.json in place
    python scripts/bench_compare.py --baseline-dir baseline --candidate-dir .
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.analysis.census_pins import census_ok, census_regressions  # noqa: E402

#: The benchmark artefacts the gate knows about.
DEFAULT_NAMES = ("kernel", "explorer", "synth", "serve")

#: Keys every candidate artefact must record, whatever the baseline holds.
#: The table-kernel timings are required so a change cannot silently stop
#: benchmarking (and thus stop gating) the vectorized successor-table path.
REQUIRED_TIMINGS = {
    "kernel": (
        "exhaustive_verification_seconds",
        "table_sweep_seconds",
        "table_sweep_warm_seconds",
        "n8_table_sweep_seconds",
        "n9_table_sweep_seconds",
        "n10_enumeration_seconds",
        "n10_shard_build_seconds",
        "shard_sweep_seconds",
        "parallel_sweep_seconds",
        "telemetry_overhead_seconds",
        "telemetry_overhead_disabled_seconds",
    ),
    "explorer": (
        "table_fsync_build_seconds",
        "table_fsync_build_warm_seconds",
        "table_ssync_build_seconds",
        "table_ssync_build_warm_seconds",
        "n8_fsync_build_seconds",
        "n8_ssync_build_seconds",
    ),
    "synth": ("recovery_candidates_per_second",),
    "serve": ("serve_rps", "serve_p99_seconds"),
}


def _load(path: Path) -> Optional[Dict[str, Any]]:
    if not path.exists():
        return None
    with open(path) as handle:
        return json.load(handle)


def _is_census(key: str, value: Any) -> bool:
    return "census" in key and isinstance(value, Mapping)


def compare_timings(
    baseline: Mapping[str, Any],
    candidate: Mapping[str, Any],
    max_slowdown: float,
    min_seconds: float,
    ignore_timings: bool = False,
    min_rps: float = 5.0,
) -> Tuple[List[str], List[str]]:
    """Compare two ``timings`` dicts; returns ``(report_lines, failures)``.

    A gated key (a census, a ``*_seconds`` timing or a ``*_rps`` throughput)
    present in the baseline but absent from the candidate is a failure — a
    benchmark that stops recording a pinned number must not silently clear
    the gate.  Keys new in the candidate are informational.  ``*_rps`` keys
    gate one-sidedly in the opposite direction of ``*_seconds``: only a
    throughput *drop* beyond ``max_slowdown`` (and past the ``min_rps``
    absolute noise floor) fails; a faster service always passes.  With
    ``ignore_timings`` both checks are advisory (cross-machine wall-clock
    comparison is noise); the census gate always holds.
    """
    lines: List[str] = []
    failures: List[str] = []
    for key in sorted(set(baseline) | set(candidate)):
        before, after = baseline.get(key), candidate.get(key)
        gated = _is_census(key, before) or (
            (key.endswith("_seconds") or key.endswith("_rps"))
            and isinstance(before, (int, float))
        )
        if gated and key not in candidate:
            lines.append(f"  {key}: MISSING from candidate")
            failures.append(f"{key}: gated key missing from candidate")
            continue
        if _is_census(key, before) and _is_census(key, after):
            problems = census_regressions(before, after)
            status = "REGRESSED" if problems else "ok"
            lines.append(
                f"  {key}: {census_ok(before)} -> {census_ok(after)} won [{status}]"
            )
            failures.extend(f"{key}: {problem}" for problem in problems)
            continue
        if key.endswith("_seconds") and isinstance(before, (int, float)) and isinstance(
            after, (int, float)
        ):
            slower = after - before
            ratio = (after / before - 1.0) if before else 0.0
            failed = ratio > max_slowdown and slower > min_seconds and not ignore_timings
            if failed:
                status = f"+{ratio * 100:.0f}% SLOWER"
            elif ignore_timings and ratio > max_slowdown and slower > min_seconds:
                status = f"+{ratio * 100:.0f}% slower [advisory]"
            else:
                status = "ok"
            lines.append(f"  {key}: {before:.4f}s -> {after:.4f}s [{status}]")
            if failed:
                failures.append(
                    f"{key}: {before:.4f}s -> {after:.4f}s "
                    f"(+{ratio * 100:.0f}%, tolerance {max_slowdown * 100:.0f}%)"
                )
            continue
        if key.endswith("_rps") and isinstance(before, (int, float)) and isinstance(
            after, (int, float)
        ):
            drop = before - after
            ratio = (1.0 - after / before) if before else 0.0
            breached = ratio > max_slowdown and drop > min_rps
            failed = breached and not ignore_timings
            if failed:
                status = f"-{ratio * 100:.0f}% THROUGHPUT DROP"
            elif breached:
                status = f"-{ratio * 100:.0f}% throughput drop [advisory]"
            else:
                status = "ok"
            lines.append(f"  {key}: {before:.1f}/s -> {after:.1f}/s [{status}]")
            if failed:
                failures.append(
                    f"{key}: {before:.1f}/s -> {after:.1f}/s "
                    f"(-{ratio * 100:.0f}%, tolerance {max_slowdown * 100:.0f}%)"
                )
            continue
        if before != after:
            lines.append(f"  {key}: {before!r} -> {after!r} [info]")
    return lines, failures


def compare_file(
    baseline_path: Path,
    candidate_path: Path,
    max_slowdown: float,
    min_seconds: float,
    ignore_timings: bool = False,
    required: Sequence[str] = (),
    min_rps: float = 5.0,
) -> Tuple[List[str], List[str]]:
    """Compare one BENCH JSON pair; missing files are failures."""
    baseline = _load(baseline_path)
    candidate = _load(candidate_path)
    if baseline is None:
        return [], [f"missing baseline {baseline_path}"]
    if candidate is None:
        return [], [f"missing candidate {candidate_path} (did the benchmarks run?)"]
    candidate_timings = candidate.get("timings", {})
    lines, failures = compare_timings(
        baseline.get("timings", {}),
        candidate_timings,
        max_slowdown,
        min_seconds,
        ignore_timings,
        min_rps=min_rps,
    )
    for key in required:
        if key not in candidate_timings:
            lines.append(f"  {key}: REQUIRED key missing from candidate")
            failures.append(f"{key}: required key missing from candidate")
    return lines, failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail on benchmark slowdowns or census regressions "
        "between two sets of BENCH_*.json files.",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        required=True,
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--candidate-dir",
        type=Path,
        required=True,
        help="directory holding the freshly-generated BENCH_*.json files",
    )
    parser.add_argument(
        "--names",
        default=",".join(DEFAULT_NAMES),
        help="comma-separated artefact names (default: %(default)s)",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=0.25,
        help="tolerated fractional slowdown per timing (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.05,
        help="ignore absolute slowdowns below this many seconds (noise floor)",
    )
    parser.add_argument(
        "--min-rps",
        type=float,
        default=5.0,
        help="ignore absolute throughput drops below this many requests/sec "
        "(noise floor for *_rps keys)",
    )
    parser.add_argument(
        "--ignore-timings",
        action="store_true",
        help="report slowdowns as advisory instead of failing (use when the "
        "baseline was generated on different hardware); censuses still gate",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    all_failures: List[str] = []
    for name in [n.strip() for n in args.names.split(",") if n.strip()]:
        filename = f"BENCH_{name}.json"
        lines, failures = compare_file(
            args.baseline_dir / filename,
            args.candidate_dir / filename,
            args.max_slowdown,
            args.min_seconds,
            args.ignore_timings,
            required=REQUIRED_TIMINGS.get(name, ()),
            min_rps=args.min_rps,
        )
        print(f"{filename}:")
        for line in lines:
            print(line)
        for failure in failures:
            print(f"  FAIL {failure}")
        all_failures.extend(f"{filename}: {failure}" for failure in failures)

    if all_failures:
        print(f"\nbench-compare: {len(all_failures)} regression(s)")
        return 1
    print("\nbench-compare: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
