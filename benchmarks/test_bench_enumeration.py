"""Experiment E1 — "all possible connected initial configurations (3652 patterns)".

Regenerates the count of connected initial configurations of seven robots up
to translation and validates the whole series 1, 3, 11, 44, 186, 814, 3652
against the paper's figure and the fixed-polyhex sequence (OEIS A001207).
Also times the cold n=10 enumeration (362,671 shapes), the first pass of
the n=10 shard build, as ``n10_enumeration_seconds`` in ``BENCH_kernel.json``.
"""
import gc
import time

import numpy as np
import pytest

from repro.enumeration.polyhex import (
    FIXED_POLYHEX_COUNTS,
    canonical_positions,
    enumerate_canonical_node_sets,
)


@pytest.mark.benchmark(group="E1-enumeration")
def test_enumerate_all_3652_initial_configurations(benchmark, print_table):
    shapes = benchmark.pedantic(
        lambda: enumerate_canonical_node_sets(7), rounds=1, iterations=1
    )
    assert len(shapes) == 3652, "the paper's 3652 initial configurations"
    rows = []
    for size in range(1, 8):
        count = len(enumerate_canonical_node_sets(size)) if size < 7 else len(shapes)
        rows.append(
            {
                "robots": size,
                "connected configurations": count,
                "expected (paper / OEIS A001207)": FIXED_POLYHEX_COUNTS[size],
                "match": count == FIXED_POLYHEX_COUNTS[size],
            }
        )
    print_table("E1: connected initial configurations up to translation", rows)
    assert all(row["match"] for row in rows)


@pytest.mark.benchmark(group="E1-enumeration")
def test_cold_n10_enumeration(benchmark, bench_timings):
    seconds = []

    def cold():
        canonical_positions.cache_clear()
        gc.collect()
        start = time.perf_counter()
        positions = canonical_positions(10)
        seconds.append(time.perf_counter() - start)
        return positions

    positions = benchmark.pedantic(cold, rounds=1, iterations=1)
    assert positions.shape == (FIXED_POLYHEX_COUNTS[10], 10, 2)
    # n=10 is the first size whose row keys span two words: check the rows
    # are anchored and strictly increasing in lexicographic order.
    assert (positions[:, 0] == 0).all()
    flat = positions.reshape(len(positions), -1)
    differs = flat[1:] != flat[:-1]
    assert differs.any(axis=1).all()
    first = differs.argmax(axis=1)
    rows = np.arange(len(first))
    assert (flat[:-1][rows, first] < flat[1:][rows, first]).all()
    bench_timings["n10_enumeration_seconds"] = round(seconds[0], 4)
    # Drop the memo again so the n=10 shard-build bench enumerates cold.
    canonical_positions.cache_clear()
