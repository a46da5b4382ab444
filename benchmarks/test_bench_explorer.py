"""Experiment E10 (extension, ours) — transition-graph explorer throughput.

Benchmarks the model-checking subsystem end to end over the full 3652-root
state space: FSYNC graph construction (functional graph, one edge per
vertex), adversarial SSYNC construction (one edge per distinct activation
effect), the classification pass and witness extraction.  The FSYNC census is
asserted to reconcile exactly with the exhaustive per-run sweep — the same
cross-check the tier-1 tests pin, here at benchmark scale — and the measured
rates are persisted to ``BENCH_explorer.json`` so later PRs can track the
explorer's performance trajectory alongside the kernel baseline.
"""
import time

import pytest

from repro.algorithms.visibility2 import ShibataGatheringAlgorithm
from repro.analysis.census_pins import N8_ROOTS, pinned_census
from repro.analysis.model_checking import reconcile_with_sweep
from repro.core.table_kernel import clear_table_caches
from repro.explore import explore

from oracles import assert_same_graph

#: Timings collected by the explorer benchmarks; the SSYNC benchmark (the
#: last one in file order) persists them once both have passed.
_EXPLORER_TIMINGS = {}


def _timed_explore(mode, **kwargs):
    start = time.perf_counter()
    report = explore(algorithm_name="shibata-visibility2", size=7, mode=mode, **kwargs)
    return report, time.perf_counter() - start


def _table_explores(mode, packed_report):
    """Cold + warm table-kernel explorations, asserted graph-identical.

    The cold pass pays the per-algorithm successor-table build; the warm
    pass (same algorithm instance, table memoized) is the steady-state cost
    every later exploration of the session pays — the number the tentpole
    target pins.
    """
    algorithm = ShibataGatheringAlgorithm()
    cold = explore(algorithm=algorithm, size=7, mode=mode, kernel="table",
                   with_witnesses=False)
    warm = explore(algorithm=algorithm, size=7, mode=mode, kernel="table",
                   with_witnesses=False)
    for report in (cold, warm):
        assert_same_graph(report.graph, packed_report.graph)
        assert report.root_census == packed_report.root_census
    return cold, warm


@pytest.mark.benchmark(group="E10-explorer")
def test_explorer_fsync_full_state_space(benchmark, paper_algorithm_report,
                                         print_table, bench_timings):
    report, total_seconds = _timed_explore("fsync")

    # Correctness first: the FSYNC classification must reconcile exactly with
    # the session's exhaustive sweep (1895/1365/392 over 3652).
    reconciliation = reconcile_with_sweep(report, paper_algorithm_report)
    assert reconciliation["matches"], reconciliation["differences"]
    assert not report.graph.truncated

    benchmark.pedantic(lambda: _timed_explore("fsync"), rounds=1, iterations=1)

    # The table kernel must rebuild the same graph, byte for byte, and the
    # warm (table memoized) build is the steady-state cost of the session.
    table_cold, table_warm = _table_explores("fsync", report)

    _EXPLORER_TIMINGS.update(
        {
            "fsync_nodes": report.graph.num_nodes,
            "fsync_edges": report.graph.num_edges,
            "fsync_build_seconds": round(report.graph.elapsed_seconds, 4),
            "fsync_build_nodes_per_second": round(report.graph.throughput(), 1),
            "fsync_classify_seconds": round(report.classify_seconds, 4),
            "fsync_witness_seconds": round(report.witness_seconds, 4),
            "fsync_total_seconds": round(total_seconds, 4),
            "fsync_root_census": dict(report.root_census),
            "table_fsync_build_seconds": round(table_cold.graph.elapsed_seconds, 4),
            "table_fsync_build_warm_seconds": round(table_warm.graph.elapsed_seconds, 4),
        }
    )
    bench_timings["explorer_fsync_seconds"] = round(total_seconds, 4)
    print_table(
        "E10: FSYNC transition-graph exploration (3652 roots)",
        [
            {
                "nodes": report.graph.num_nodes,
                "edges": report.graph.num_edges,
                "build s": round(report.graph.elapsed_seconds, 3),
                "table build s (cold/warm)": "%.3f / %.3f"
                % (table_cold.graph.elapsed_seconds, table_warm.graph.elapsed_seconds),
                "classify s": round(report.classify_seconds, 3),
                "nodes/s": round(report.graph.throughput(), 1),
            }
        ],
    )


@pytest.mark.benchmark(group="E10-explorer")
def test_explorer_ssync_full_state_space(benchmark, print_table, bench_timings,
                                         write_bench_baseline):
    report, total_seconds = _timed_explore("ssync")

    # The adversarial census: every class present must come with a witness.
    assert not report.graph.truncated
    assert sum(report.root_census.values()) == 3652
    failing = set(report.root_census) - {"gathered", "safe"}
    assert failing <= set(report.witnesses)
    for witness in report.witnesses.values():
        assert witness.num_rounds >= 0

    benchmark.pedantic(lambda: _timed_explore("ssync"), rounds=1, iterations=1)

    table_cold, table_warm = _table_explores("ssync", report)
    _EXPLORER_TIMINGS.update(
        {
            "table_ssync_build_seconds": round(table_cold.graph.elapsed_seconds, 4),
            "table_ssync_build_warm_seconds": round(table_warm.graph.elapsed_seconds, 4),
            "ssync_nodes": report.graph.num_nodes,
            "ssync_edges": report.graph.num_edges,
            "ssync_build_seconds": round(report.graph.elapsed_seconds, 4),
            "ssync_build_nodes_per_second": round(report.graph.throughput(), 1),
            "ssync_classify_seconds": round(report.classify_seconds, 4),
            "ssync_witness_seconds": round(report.witness_seconds, 4),
            "ssync_total_seconds": round(total_seconds, 4),
            "ssync_root_census": dict(report.root_census),
        }
    )
    bench_timings["explorer_ssync_seconds"] = round(total_seconds, 4)
    print_table(
        "E10: SSYNC transition-graph exploration (3652 roots)",
        [
            {
                "nodes": report.graph.num_nodes,
                "edges": report.graph.num_edges,
                "build s": round(report.graph.elapsed_seconds, 3),
                "classify s": round(report.classify_seconds, 3),
                "nodes/s": round(report.graph.throughput(), 1),
                "census": ", ".join(
                    f"{k}={v}" for k, v in sorted(report.root_census.items())
                ),
            }
        ],
    )

    # Persist the explorer baseline (both E10 benchmarks have passed if we
    # reach this line under ``pytest -x``; a lone SSYNC run still records a
    # useful partial baseline — the n=8 scale-out benchmark below rewrites
    # it with the full key set, which the bench-compare gate requires).
    write_bench_baseline("explorer", _EXPLORER_TIMINGS)


@pytest.mark.benchmark(group="E10-explorer")
def test_explorer_n8_scale_out(benchmark, print_table, bench_timings,
                               write_bench_baseline):
    """E10 (scale-out): exhaustive n=8 censuses on the table kernel.

    Both modes run over all 16689 eight-robot roots and must reproduce the
    pinned scale-out censuses exactly (:data:`PINNED_CENSUS_N8`); the build
    timings land in ``BENCH_explorer.json`` as the gate-required
    ``n8_fsync_build_seconds`` / ``n8_ssync_build_seconds`` keys.
    """
    clear_table_caches()
    algorithm = ShibataGatheringAlgorithm()
    reports = {}
    for mode in ("fsync", "ssync"):
        start = time.perf_counter()
        report = explore(algorithm=algorithm, size=8, mode=mode,
                         kernel="table", with_witnesses=False)
        total_seconds = time.perf_counter() - start
        assert not report.graph.truncated
        assert sum(report.root_census.values()) == N8_ROOTS
        assert dict(report.root_census) == pinned_census(
            "shibata-visibility2", mode, size=8
        )
        reports[mode] = (report, total_seconds)

    # The warm re-exploration (table memoized on the algorithm instance) is
    # the steady-state cost of a scale-out session.
    benchmark.pedantic(
        lambda: explore(algorithm=algorithm, size=8, mode="fsync",
                        kernel="table", with_witnesses=False),
        rounds=1,
        iterations=1,
    )

    _EXPLORER_TIMINGS.update(
        {
            "n8_fsync_build_seconds": round(reports["fsync"][0].graph.elapsed_seconds, 4),
            "n8_fsync_total_seconds": round(reports["fsync"][1], 4),
            "n8_fsync_edges": reports["fsync"][0].graph.num_edges,
            "n8_fsync_root_census": dict(reports["fsync"][0].root_census),
            "n8_ssync_build_seconds": round(reports["ssync"][0].graph.elapsed_seconds, 4),
            "n8_ssync_total_seconds": round(reports["ssync"][1], 4),
            "n8_ssync_edges": reports["ssync"][0].graph.num_edges,
            "n8_ssync_root_census": dict(reports["ssync"][0].root_census),
            "n8_nodes": reports["fsync"][0].graph.num_nodes,
        }
    )
    bench_timings["explorer_n8_fsync_seconds"] = round(reports["fsync"][1], 4)
    bench_timings["explorer_n8_ssync_seconds"] = round(reports["ssync"][1], 4)
    print_table(
        "E10: n=8 scale-out exploration (16689 roots, table kernel)",
        [
            {
                "mode": mode,
                "edges": report.graph.num_edges,
                "build s": round(report.graph.elapsed_seconds, 3),
                "census": ", ".join(
                    f"{k}={v}" for k, v in sorted(report.root_census.items())
                ),
            }
            for mode, (report, _) in reports.items()
        ],
    )
    write_bench_baseline("explorer", _EXPLORER_TIMINGS)
