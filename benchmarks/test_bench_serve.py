"""The service throughput benchmark behind ``BENCH_serve.json``.

A live server (the same stdlib asyncio stack production uses, on a daemon
thread) is driven by the in-repo async load generator
(:func:`repro.serve.run_load`): concurrent keep-alive connections each issue
a stream of ``/v1/verify`` requests over a rotating mix of seven-robot roots.
The aggregate requests/sec and latency quantiles land in ``BENCH_serve.json``
and are gated one-sidedly by ``scripts/bench_compare.py`` — a throughput
regression (or a p99 blow-up) past the noise allowance fails CI.
"""
from __future__ import annotations

import asyncio

import pytest

pytest.importorskip("numpy")

from repro.serve import GatheringService, ServerThread, run_load

#: Load-generator shape: small enough for CI, large enough that keep-alive
#: reuse and per-turn request coalescing dominate fixed costs.
CONNECTIONS = 8
REQUESTS_PER_CONNECTION = 75


def test_bench_serve_requests_per_second(
    all_seven_robot_configurations, write_bench_baseline, print_table
):
    roots = all_seven_robot_configurations[:: max(1, len(all_seven_robot_configurations) // 256)]
    payloads = [
        {"algorithm": "shibata-visibility2", "config": [list(node) for node in root.nodes]}
        for root in roots
    ]

    service = GatheringService(sizes=(7,))
    with ServerThread(service) as base_url:
        host, port = base_url.split("//")[1].rsplit(":", 1)
        result = asyncio.run(
            run_load(
                host,
                int(port),
                lambda i: payloads[i % len(payloads)],
                connections=CONNECTIONS,
                requests_per_connection=REQUESTS_PER_CONNECTION,
            )
        )

    assert result.errors == 0
    assert result.requests == CONNECTIONS * REQUESTS_PER_CONNECTION
    assert result.rps > 0 and result.p99_seconds > 0

    timings = result.timings()
    print_table(
        "serve throughput (/v1/verify, table kernel, micro-batched)",
        [
            {
                "connections": CONNECTIONS,
                "requests": result.requests,
                "rps": f"{result.rps:.0f}",
                "p50_ms": f"{result.p50_seconds * 1e3:.2f}",
                "p99_ms": f"{result.p99_seconds * 1e3:.2f}",
                "mean_ms": f"{result.mean_seconds * 1e3:.2f}",
            }
        ],
    )
    write_bench_baseline("serve", timings)
