"""Open-loop load generator of the serve-mixed workload, in its own process.

Usage (from ``run.py``)::

    python perfbench/loadgen.py --port P --seed S --rates 150,300,330,... \
        --out result.json

Requests arrive as a seeded Poisson process at each offered rate and go out
over two keep-alive connections.  Each request is timed from the moment it
was due, so a request that waits for a free connection carries that wait in
its latency.  The generator also records how late it itself put each request
in the send queue (``generator_lag``); a step where the generator ran late is
marked invalid instead of passed.

The mix per step is exactly ``VERIFY_PER_STEP`` ``/v1/verify`` requests of
one seeded n=7 root and ``SWEEP_PER_STEP`` ``/v1/sweep`` requests of 64
seeded roots, shuffled; each request picks one of the served algorithms at
random.  Expected answers come from the table kernel before any load starts,
and every response is checked after its step.
"""
from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
from typing import Dict, List, Optional, Tuple

import harness

VERIFY_PER_STEP = 1000
#: 10% of the mix, and enough that p90 has 10 samples beyond it.
SWEEP_PER_STEP = 112
SWEEP_ROOTS = 64
CONNECTIONS = 2
#: The verify p99 a ladder step must meet.  On a 2-core host the lightest
#: rate already reads 12-30 ms at p99 (a verify that lands behind a 64-root
#: sweep waits for it), so a 10 ms limit is never met; 50 ms sits below the
#: knee where the two connections saturate.
LATENCY_LIMIT_MS = 50.0
#: A step is invalid when the generator queued requests this late at p99
#: (a tenth of the limit; its timer alone reads about 2 ms).
MAX_GENERATOR_LAG_MS = 5.0
MAX_ROUNDS = 1000


def make_inputs(seed: int, algorithms: List[str]) -> Dict:
    """Seeded roots and the table kernel's answers for them."""
    from repro.algorithms.registry import create_algorithm
    from repro.core.runner import execute_configuration
    from repro.enumeration.polyhex import enumerate_canonical_node_sets

    rng = random.Random(seed)
    shapes = enumerate_canonical_node_sets(7)
    verify_root = [list(node) for node in rng.choice(shapes)]
    sweep_roots = [[list(node) for node in shape] for shape in rng.sample(shapes, SWEEP_ROOTS)]

    def answer(algorithm, nodes):
        result = execute_configuration(
            [tuple(n) for n in nodes], algorithm, max_rounds=MAX_ROUNDS, kernel="table"
        )
        return [result.outcome.value, result.rounds, result.total_moves]

    expected = {}
    for name in algorithms:
        algorithm = create_algorithm(name)
        expected[name] = {
            "verify": answer(algorithm, verify_root),
            "sweep": [answer(algorithm, nodes) for nodes in sweep_roots],
        }
    bodies = {}
    for name in algorithms:
        bodies[(name, "verify")] = json.dumps(
            {"algorithm": name, "config": verify_root, "max_rounds": MAX_ROUNDS}
        ).encode()
        bodies[(name, "sweep")] = json.dumps(
            {"algorithm": name, "configs": sweep_roots, "max_rounds": MAX_ROUNDS}
        ).encode()
    return {"expected": expected, "bodies": bodies}


async def _exchange(reader, writer, path: bytes, body: bytes) -> Tuple[int, bytes]:
    writer.write(
        b"POST " + path + b" HTTP/1.1\r\nHost: bench\r\n"
        b"Content-Type: application/json\r\nContent-Length: "
        + str(len(body)).encode() + b"\r\n\r\n" + body
    )
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


def check_response(kind: str, algorithm: str, status: int, body: bytes,
                   expected: Dict) -> Optional[str]:
    """Why one response is wrong, or ``None``."""
    from repro.serve.protocol import response_problems

    if not 200 <= status < 300:
        return f"status {status}"
    try:
        payload = json.loads(body)
    except ValueError as exc:
        return f"invalid JSON: {exc}"
    problems = response_problems(kind, payload)
    if problems:
        return "; ".join(problems[:3])
    want = expected[algorithm][kind]
    if kind == "verify":
        got = [payload["outcome"], payload["rounds"], payload["total_moves"]]
        return None if got == want else f"verdict {got} != {want}"
    got_list = [[r["outcome"], r["rounds"], r["total_moves"]] for r in payload["results"]]
    return None if got_list == want else "sweep verdicts differ from the table kernel"


async def run_step(port: int, rate: float, rng: random.Random, inputs: Dict,
                   algorithms: List[str]) -> Dict:
    loop = asyncio.get_running_loop()
    plan = ["verify"] * VERIFY_PER_STEP + ["sweep"] * SWEEP_PER_STEP
    rng.shuffle(plan)
    plan = [(kind, rng.choice(algorithms)) for kind in plan]
    # Exponential gaps rescaled so every step offers exactly its rate: the
    # arrivals stay bursty, but no seed offers a step 5% more than another.
    gaps = [rng.expovariate(1.0) for _ in plan]
    scale = len(plan) / (rate * sum(gaps))
    gaps = [gap * scale for gap in gaps]
    queue: "asyncio.Queue" = asyncio.Queue()
    # per request: [kind, algorithm, due, enqueued, sent, done, status, body, error]
    records: List[list] = []

    connections = [await asyncio.open_connection("127.0.0.1", port) for _ in range(CONNECTIONS)]

    async def dispatcher(start: float) -> None:
        due = start
        for (kind, algorithm), gap in zip(plan, gaps):
            due += gap
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait([kind, algorithm, due, loop.time(), 0.0, 0.0, 0, b"", None])
        for _ in connections:
            queue.put_nowait(None)

    async def sender(index: int) -> None:
        reader, writer = connections[index]
        while True:
            record = await queue.get()
            if record is None:
                return
            kind, algorithm = record[0], record[1]
            record[4] = loop.time()
            try:
                if reader is None:
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                record[6], record[7] = await _exchange(
                    reader, writer, b"/v1/" + kind.encode(), inputs["bodies"][(algorithm, kind)]
                )
            except (OSError, asyncio.IncompleteReadError, ValueError, IndexError) as exc:
                record[8] = f"refused or broken: {exc!r}"
                if writer is not None:
                    writer.close()
                reader = writer = None
            record[5] = loop.time()
            records.append(record)

    start = loop.time() + 0.05
    await asyncio.gather(dispatcher(start), *(sender(i) for i in range(CONNECTIONS)))
    for _, writer in connections:
        writer.close()

    failures: List[str] = []
    verify_ms: List[float] = []
    sweep_ms: List[float] = []
    lag_ms: List[float] = []
    client_seconds = 0.0
    for kind, algorithm, due, enqueued, sent, done, status, body, error in records:
        lag_ms.append((enqueued - due) * 1e3)
        client_seconds += done - sent
        problem = error or check_response(kind, algorithm, status, body, inputs["expected"])
        if problem:
            failures.append(f"{kind}/{algorithm}: {problem}")
        (verify_ms if kind == "verify" else sweep_ms).append((done - due) * 1e3)
    dues = [r[2] for r in records]
    verify_tail_p = harness.tail_percentile(len(verify_ms))
    sweep_tail_p = harness.tail_percentile(len(sweep_ms))
    lag_p99 = harness.percentile(lag_ms, 99.0)
    step = {
        "rate": rate,
        "offered_rps": (len(dues) - 1) / (max(dues) - min(dues)),
        "sent": len(records),
        "succeeded": len(records) - len(failures),
        "failed": len(failures),
        "failures": failures[:5],
        "verify_count": len(verify_ms),
        "verify_p50_ms": harness.percentile(verify_ms, 50.0),
        "verify_tail_p": verify_tail_p,
        "verify_tail_ms": harness.percentile(verify_ms, verify_tail_p),
        "sweep_count": len(sweep_ms),
        "sweep_p50_ms": harness.percentile(sweep_ms, 50.0),
        "sweep_tail_p": sweep_tail_p,
        "sweep_tail_ms": harness.percentile(sweep_ms, sweep_tail_p),
        "generator_lag_p50_ms": harness.percentile(lag_ms, 50.0),
        "generator_lag_p99_ms": lag_p99,
        "generator_lag_max_ms": max(lag_ms),
        "valid": lag_p99 <= MAX_GENERATOR_LAG_MS,
        "backlog_grew": harness.backlog_grew(
            len(dues), min(dues), max(dues), max(r[5] for r in records)
        ),
        "client_seconds": client_seconds,
        "latency_sum_s": sum(r[5] - r[2] for r in records),
    }
    step["passed"] = harness.step_passes(step, LATENCY_LIMIT_MS)
    return step


async def run_ladder(port: int, seed: int, rates: List[float], algorithms: List[str]) -> Dict:
    inputs = make_inputs(seed, algorithms)
    rng = random.Random(seed * 7919 + 1)
    steps = []
    for index, rate in enumerate(rates):
        step = await run_step(port, rate, rng, inputs, algorithms)
        steps.append(step)
        # r1 and r2 always run (their latencies are metrics); the ladder
        # above r2 ends at its first failing step, r2 included.
        if index >= 1 and not step["passed"]:
            break
    return {"steps": steps}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rates", required=True)
    parser.add_argument("--algorithms", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    rates = [float(r) for r in args.rates.split(",")]
    result = asyncio.run(
        run_ladder(args.port, args.seed, rates, args.algorithms.split(","))
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
