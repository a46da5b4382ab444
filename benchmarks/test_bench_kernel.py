"""Experiment E9 (extension, ours) — packed-kernel speedup and cache hit rate.

Times the exhaustive FSYNC sweep of the paper's algorithm on a sample of the
3652 initial configurations twice: once with the reference (View-object)
engine, the test oracle ``oracles.reference_execution``, and once with the
packed, memoized kernel, asserting that both produce identical outcomes and
that the packed kernel is materially faster.  Also
reports the in-memory decision cache hit rate over the sample, which is the
mechanism behind the speedup (a handful of distinct views decide tens of
thousands of Look–Compute cycles).
"""
import glob
import os
import time

import pytest

from repro import obs
from repro.algorithms.visibility2 import ShibataGatheringAlgorithm
from repro.analysis.census_pins import (
    N8_ROOTS,
    N9_ROOTS,
    N10_ROOTS,
    PINNED_CENSUS_N8,
    PINNED_CENSUS_N9,
    PINNED_CENSUS_N10,
    census_ok,
)
from repro.core import runner
from repro.core.runner import ConfigurationResult, ExecutionBatch, run_many, run_sweep
from repro.core.table_kernel import clear_table_caches
from repro.enumeration.polyhex import enumerate_connected_configurations

from oracles import reference_execution


def _sweep(configurations, kernel):
    algorithm = ShibataGatheringAlgorithm()
    start = time.perf_counter()
    batch = run_many(configurations, algorithm=algorithm, max_rounds=600, kernel=kernel)
    return batch, time.perf_counter() - start


def _reference_sweep(configurations):
    """The oracle engine over ``configurations``, summarized like ``run_many``."""
    algorithm = ShibataGatheringAlgorithm()
    start = time.perf_counter()
    batch = ExecutionBatch(algorithm_name=algorithm.name, max_rounds=600)
    for configuration in configurations:
        trace = reference_execution(
            configuration, algorithm, max_rounds=600, record_rounds=False
        )
        batch.results.append(
            ConfigurationResult(
                initial_nodes=tuple((c.q, c.r) for c in configuration.sorted_nodes()),
                outcome=trace.outcome,
                rounds=trace.num_rounds,
                total_moves=trace.total_moves,
                initial_diameter=configuration.diameter(),
                collision_kind=trace.collision_kind,
            )
        )
    return batch, time.perf_counter() - start


@pytest.mark.benchmark(group="E9-kernel")
def test_packed_kernel_speedup(benchmark, all_seven_robot_configurations,
                               print_table, bench_timings):
    sample = all_seven_robot_configurations[::4]  # 913 configurations

    reference_batch, reference_seconds = _reference_sweep(sample)
    packed_batch, packed_seconds = _sweep(sample, "packed")

    # The memoized kernel must be an exact drop-in: identical per-configuration
    # outcomes, round counts and move totals.
    assert packed_batch.results == reference_batch.results

    benchmark.pedantic(
        lambda: _sweep(sample, "packed"), rounds=1, iterations=1
    )

    speedup = reference_seconds / packed_seconds if packed_seconds else float("inf")
    bench_timings["kernel_reference_seconds"] = round(reference_seconds, 4)
    bench_timings["kernel_packed_seconds"] = round(packed_seconds, 4)
    bench_timings["kernel_speedup"] = round(speedup, 2)
    print_table(
        "E9: packed kernel vs reference engine (913-configuration sample)",
        [
            {
                "reference seconds": round(reference_seconds, 3),
                "packed seconds": round(packed_seconds, 3),
                "speedup": f"{speedup:.1f}x",
            }
        ],
    )
    # Exact result equality above is the real check; the timing gate is kept
    # deliberately loose so noisy CI runners cannot fail a correct build
    # (typical speedup is ~5x; the measured value lands in BENCH_kernel.json).
    assert speedup > 1.0, "the packed kernel must not be slower than the reference"


@pytest.mark.benchmark(group="E9-kernel")
def test_table_kernel_byte_identity_and_speedup(benchmark, all_seven_robot_configurations,
                                                print_table, bench_timings):
    """E9 (table): the successor-table kernel vs the packed kernel, full scale.

    The whole 3652-configuration FSYNC sweep runs once per kernel; the table
    results must be byte-identical (outcomes, rounds, move totals, collision
    kinds) and the ``table_*`` keys land in ``BENCH_kernel.json``, where the
    bench-compare gate requires and tracks them.
    """
    configurations = all_seven_robot_configurations

    packed_algorithm = ShibataGatheringAlgorithm()
    start = time.perf_counter()
    packed_batch = run_many(configurations, algorithm=packed_algorithm,
                            max_rounds=600, kernel="packed")
    packed_seconds = time.perf_counter() - start

    table_algorithm = ShibataGatheringAlgorithm()
    start = time.perf_counter()
    table_batch = run_many(configurations, algorithm=table_algorithm,
                           max_rounds=600, kernel="table")
    table_cold_seconds = time.perf_counter() - start

    # Byte identity over the full state space is the point of the exercise.
    assert table_batch.results == packed_batch.results

    # Warm pass: the successor table is memoized on the algorithm instance,
    # so a repeated sweep is pure functional-graph lookup.
    start = time.perf_counter()
    warm_batch = run_many(configurations, algorithm=table_algorithm,
                          max_rounds=600, kernel="table")
    table_warm_seconds = time.perf_counter() - start
    assert warm_batch.results == packed_batch.results

    benchmark.pedantic(
        lambda: run_many(configurations, algorithm=table_algorithm,
                         max_rounds=600, kernel="table"),
        rounds=1,
        iterations=1,
    )

    speedup = packed_seconds / table_cold_seconds if table_cold_seconds else float("inf")
    bench_timings["table_sweep_seconds"] = round(table_cold_seconds, 4)
    bench_timings["table_sweep_warm_seconds"] = round(table_warm_seconds, 4)
    bench_timings["table_sweep_speedup"] = round(speedup, 2)
    print_table(
        "E9: successor-table kernel vs packed kernel (full 3652-configuration sweep)",
        [
            {
                "packed seconds": round(packed_seconds, 3),
                "table seconds (cold)": round(table_cold_seconds, 3),
                "table seconds (warm)": round(table_warm_seconds, 3),
                "speedup (cold)": f"{speedup:.1f}x",
            }
        ],
    )
    # Identity is the real check; the timing gate is loose on purpose so a
    # noisy runner cannot fail a correct build (typical cold speedup is ~6x).
    assert speedup > 1.0, "the table kernel must not be slower than packed"


@pytest.mark.benchmark(group="E9-kernel")
def test_n8_table_sweep_and_parallel_speedup(benchmark, print_table, bench_timings,
                                             monkeypatch):
    """E9 (scale-out): the successor-table engine past the paper's n=7.

    Two measurements land in ``BENCH_kernel.json`` (both required by the
    bench-compare gate):

    * ``n8_table_sweep_seconds`` — the exhaustive FSYNC sweep of all 16689
      eight-robot roots through one cold table build, cross-checked against
      the pinned n=8 census (gathered-or-safe roots must reconcile exactly);
    * ``parallel_sweep_seconds`` — a scheduled (non-FSYNC) grid cell at n=8
      fanned out over shared-memory workers, asserted cell-identical to the
      serial run.  The speedup is recorded honestly; it is only *asserted*
      on multi-core hosts, since a single-CPU runner cannot exhibit one.
    """
    clear_table_caches()
    configurations = enumerate_connected_configurations(8)
    assert len(configurations) == N8_ROOTS

    algorithm = ShibataGatheringAlgorithm()
    start = time.perf_counter()
    batch = run_many(configurations, algorithm=algorithm, max_rounds=600,
                     kernel="table")
    n8_seconds = time.perf_counter() - start

    # The sweep must reconcile with the pinned exhaustive census: the roots
    # the explorer counts gathered-or-safe are exactly the ones that gather.
    assert batch.total == N8_ROOTS
    assert batch.successes == census_ok(PINNED_CENSUS_N8[("shibata-visibility2", "fsync")])

    benchmark.pedantic(
        lambda: run_many(configurations, algorithm=algorithm, max_rounds=600,
                         kernel="table"),
        rounds=1,
        iterations=1,
    )

    # Parallel shared-memory sweep: a sampled scheduled cell (round-robin
    # activation is real per-configuration work; a pure FSYNC sweep is one
    # table lookup and leaves nothing to parallelize).  Both legs build the
    # successor table once, serially, on the registry's instance; the
    # parallel leg then publishes it and every worker answers from the same
    # arrays.  Each leg starts from a fresh registry instance (no table, an
    # empty decision cache): ``clear_table_caches()`` alone leaves that
    # instance's tables in place for the second leg.
    sample = configurations[::8]
    grid = dict(
        scheduler_specs=["round-robin:2"],
        max_rounds_grid=[600],
        configurations=sample,
        kernel="table",
        chunk_size=128,
    )
    def fresh_start():
        clear_table_caches()
        monkeypatch.delitem(runner._WORKER_ALGORITHMS, "shibata-visibility2", raising=False)

    fresh_start()
    start = time.perf_counter()
    serial_cells = run_sweep(["shibata-visibility2"], workers=1, **grid)
    serial_seconds = time.perf_counter() - start
    fresh_start()
    workers = max(2, min(4, os.cpu_count() or 1))
    start = time.perf_counter()
    parallel_cells = run_sweep(["shibata-visibility2"], workers=workers, **grid)
    parallel_seconds = time.perf_counter() - start

    # Identity of every cell aggregate (timing excluded) is the real check;
    # the shared-memory segments must all be unlinked after pool teardown.
    def _strip(cells):
        return [{k: v for k, v in c.summary().items() if k != "seconds"} for c in cells]

    assert _strip(parallel_cells) == _strip(serial_cells)
    assert not glob.glob("/dev/shm/repro_tbl_*"), "leaked shared-memory segments"

    speedup = serial_seconds / parallel_seconds if parallel_seconds else float("inf")
    bench_timings["n8_table_sweep_seconds"] = round(n8_seconds, 4)
    bench_timings["n8_sweep_roots"] = batch.total
    bench_timings["n8_sweep_gathered"] = batch.successes
    bench_timings["parallel_sweep_seconds"] = round(parallel_seconds, 4)
    bench_timings["parallel_sweep_serial_seconds"] = round(serial_seconds, 4)
    bench_timings["parallel_sweep_speedup"] = round(speedup, 2)
    bench_timings["parallel_sweep_workers"] = workers
    print_table(
        "E9: n=8 scale-out (16689-root table sweep; shared-memory parallel cell)",
        [
            {
                "n8 sweep s": round(n8_seconds, 3),
                "gathered": batch.successes,
                "serial cell s": round(serial_seconds, 3),
                f"parallel cell s (w={workers})": round(parallel_seconds, 3),
                "speedup": f"{speedup:.2f}x",
            }
        ],
    )
    if (os.cpu_count() or 1) > 1:
        assert speedup > 1.05, (
            "shared-memory parallel sweep must beat serial on a multi-core host"
        )


@pytest.mark.benchmark(group="E9-kernel")
def test_n9_sweep_and_n10_sharded_census(benchmark, tmp_path, print_table,
                                         bench_timings):
    """E9 (out-of-core): the in-RAM ceiling at n=9 and the disk tier at n=10.

    Three measurements land in ``BENCH_kernel.json`` (all required by the
    bench-compare gate):

    * ``n9_table_sweep_seconds`` — the exhaustive FSYNC sweep of all 77,359
      nine-robot roots, the largest space the in-RAM table holds, reconciled
      against the pinned n=9 census;
    * ``n10_shard_build_seconds`` — the cold out-of-core build of the
      362,671-row n=10 shard store (enumerate, geometry, decisions, resolve,
      spill);
    * ``shard_sweep_seconds`` — the exhaustive n=10 FSYNC census streamed
      from the shard store, reconciled against the pinned n=10 census.

    The whole run must stay inside ``REPRO_TABLE_MEMORY_BUDGET``: peak RSS
    is read back from the ``table.peak_rss_bytes`` gauge the build records,
    which is the acceptance bar for the out-of-core claim.
    """
    import numpy as np

    from repro.core.sharded_tables import sharded_successor_table
    from repro.core.table_kernel import (
        DEFAULT_TABLE_MEMORY_BUDGET,
        record_peak_rss,
    )

    clear_table_caches()
    configurations = enumerate_connected_configurations(9)
    assert len(configurations) == N9_ROOTS
    algorithm = ShibataGatheringAlgorithm()
    start = time.perf_counter()
    batch = run_many(configurations, algorithm=algorithm, max_rounds=600,
                     kernel="table")
    n9_seconds = time.perf_counter() - start
    assert batch.total == N9_ROOTS
    assert batch.successes == census_ok(PINNED_CENSUS_N9[("shibata-visibility2", "fsync")])
    del configurations, batch

    sharded_algorithm = ShibataGatheringAlgorithm()
    start = time.perf_counter()
    table = sharded_successor_table(sharded_algorithm, 10, cache_dir=str(tmp_path))
    n10_build_seconds = time.perf_counter() - start

    def census():
        return table.fsync_verdict(np.arange(table.view.count)).root_census

    start = time.perf_counter()
    fresh = census()
    shard_sweep_seconds = time.perf_counter() - start
    assert table.view.count == N10_ROOTS
    assert fresh == PINNED_CENSUS_N10[("shibata-visibility2", "fsync")]

    benchmark.pedantic(census, rounds=1, iterations=1)

    # The out-of-core claim: the whole n=10 pipeline (and the n=9 sweep
    # before it) never grew this process past the table memory budget.
    peak_rss = record_peak_rss()
    assert peak_rss < DEFAULT_TABLE_MEMORY_BUDGET, (
        f"peak RSS {peak_rss} exceeded the {DEFAULT_TABLE_MEMORY_BUDGET} budget"
    )

    bench_timings["n9_table_sweep_seconds"] = round(n9_seconds, 4)
    bench_timings["n10_shard_build_seconds"] = round(n10_build_seconds, 4)
    bench_timings["shard_sweep_seconds"] = round(shard_sweep_seconds, 4)
    bench_timings["shard_sweep_roots"] = int(table.view.count)
    bench_timings["shard_count"] = int(table.shards)
    bench_timings["peak_rss_bytes"] = int(peak_rss)
    print_table(
        "E9: out-of-core tier (n=9 in-RAM ceiling; n=10 sharded census)",
        [
            {
                "n9 sweep s": round(n9_seconds, 3),
                "n10 build s": round(n10_build_seconds, 3),
                "n10 census s": round(shard_sweep_seconds, 3),
                "shards": int(table.shards),
                "peak RSS MB": round(peak_rss / 1e6, 1),
            }
        ],
    )


@pytest.mark.benchmark(group="E9-kernel")
def test_decision_cache_hit_rate(benchmark, all_seven_robot_configurations,
                                 print_table, bench_timings):
    """Hit rate read from the kernel's own telemetry counters.

    The packed kernel counts every Look-Compute lookup and every cache miss
    into the ``decision_cache.*`` telemetry counters, so the hit rate is
    measured on the exact production path rather than re-derived through a
    counting wrapper on the slow reference engine.  Draining the registry
    before and after the sweep isolates this sweep's counts.
    """
    sample = all_seven_robot_configurations[::8]  # 457 configurations

    def sweep_counting():
        algorithm = ShibataGatheringAlgorithm()  # fresh instance = cold cache
        obs.export_delta()  # drain counts from earlier benchmarks
        run_many(sample, algorithm=algorithm, max_rounds=600, kernel="packed")
        delta = obs.export_delta()
        return (
            delta.get("counters", {}).get("decision_cache.lookups", 0),
            delta.get("counters", {}).get("decision_cache.misses", 0),
        )

    lookups, misses = benchmark.pedantic(sweep_counting, rounds=1, iterations=1)
    assert lookups > 0, "the packed kernel must count its cache lookups"
    hit_rate = (lookups - misses) / lookups
    bench_timings["decision_cache_distinct_views"] = misses
    bench_timings["decision_cache_hit_rate"] = round(hit_rate, 4)
    print_table(
        "E9: decision cache effectiveness (457-configuration sample)",
        [
            {
                "look-compute cycles": lookups,
                "distinct views": misses,
                "hit rate": f"{100 * hit_rate:.2f}%",
            }
        ],
    )
    # The whole sample is decided by a small dictionary of views.
    assert hit_rate > 0.75
    assert misses < 5000


@pytest.mark.benchmark(group="E9-kernel")
def test_telemetry_overhead(benchmark, all_seven_robot_configurations,
                            print_table, bench_timings):
    """Telemetry must be near-free on the hot path.

    The exhaustive n=7 table sweep (cold build each time) runs once with the
    metric registry enabled and once with it disabled; results must be
    identical and the enabled run must land within 5% of the disabled one
    (plus a small absolute allowance so sub-second sweeps are not gated on
    scheduler noise).  Both timings go to ``BENCH_kernel.json``, where the
    bench-compare gate tracks them.
    """
    configurations = all_seven_robot_configurations

    def sweep(enabled):
        clear_table_caches()
        algorithm = ShibataGatheringAlgorithm()
        obs.set_enabled(enabled)
        try:
            start = time.perf_counter()
            batch = run_many(configurations, algorithm=algorithm,
                             max_rounds=600, kernel="table")
            return batch, time.perf_counter() - start
        finally:
            obs.set_enabled(True)

    sweep(True)  # warmup: allocator/NumPy first-touch must not bill telemetry
    enabled_batch, enabled_seconds = sweep(True)
    disabled_batch, disabled_seconds = sweep(False)
    enabled_seconds = min(enabled_seconds, sweep(True)[1])  # best-of-2
    disabled_seconds = min(disabled_seconds, sweep(False)[1])
    assert enabled_batch.results == disabled_batch.results

    benchmark.pedantic(lambda: sweep(True), rounds=1, iterations=1)

    bench_timings["telemetry_overhead_seconds"] = round(enabled_seconds, 4)
    bench_timings["telemetry_overhead_disabled_seconds"] = round(disabled_seconds, 4)
    print_table(
        "E9: telemetry overhead (exhaustive n=7 table sweep, cold build)",
        [
            {
                "enabled seconds": round(enabled_seconds, 3),
                "disabled seconds": round(disabled_seconds, 3),
                "overhead": f"{100 * (enabled_seconds / disabled_seconds - 1):+.2f}%"
                if disabled_seconds
                else "n/a",
            }
        ],
    )
    assert enabled_seconds <= disabled_seconds * 1.05 + 0.05, (
        "telemetry-enabled sweep must stay within 5% of the disabled sweep"
    )
