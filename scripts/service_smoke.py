#!/usr/bin/env python
"""End-to-end smoke of the gathering service: the CI ``service-smoke`` job.

Starts ``python -m repro serve`` as a real subprocess (workers, table cache
and trace sink as requested), waits for ``/healthz``, exercises **every**
endpoint — verify, sweep, census, witness, the WebSocket stream and the
telemetry snapshot — validating each response against the wire schemas of
:mod:`repro.serve.protocol` and the telemetry document against
:func:`repro.obs.validate_telemetry`, then sends SIGTERM and asserts a clean
drain: exit code 0 and zero leaked ``/dev/shm/repro_tbl_*`` table stores.

Exit code 0 = every check passed.  Any schema problem, unexpected status,
hung shutdown or leaked table store exits 1 with the problems listed.

Usage::

    python scripts/service_smoke.py [--workers 2] [--sizes 2-6]
        [--table-cache DIR] [--trace server-trace.jsonl]
"""
from __future__ import annotations

import argparse
import asyncio
import glob
import json
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import List, Optional, Sequence

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.obs import validate_telemetry  # noqa: E402
from repro.serve import ServeClient, response_problems  # noqa: E402

ALGORITHM = "shibata-visibility2"
SMOKE_CONFIG = [[0, 0], [1, 0], [2, 0], [0, 1]]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_healthz(port: int, proc: subprocess.Popen, timeout: float = 120.0) -> dict:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"server exited early ({proc.returncode}): {proc.stderr.read()}"
            )
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=2
            ) as response:
                return json.loads(response.read())
        except (OSError, ValueError):
            time.sleep(0.3)
    raise RuntimeError(f"no /healthz within {timeout}s")


async def _exercise(port: int, problems: List[str]) -> None:
    def check(endpoint: str, payload) -> None:
        for problem in response_problems(endpoint, payload):
            problems.append(f"{endpoint}: {problem}")

    async with ServeClient("127.0.0.1", port) as client:
        check("healthz", await client.get("/healthz"))

        verify = await client.post(
            "/v1/verify", {"algorithm": ALGORITHM, "config": SMOKE_CONFIG}
        )
        check("verify", verify)
        if verify.get("outcome") != "gathered":
            problems.append(f"verify: expected gathered, got {verify.get('outcome')}")

        sweep = await client.post(
            "/v1/sweep",
            {
                "algorithm": ALGORITHM,
                "configs": [SMOKE_CONFIG, [[0, 0], [1, 0]], [[0, 0], [0, 1], [1, 0]]],
                "max_rounds": 500,
            },
        )
        check("sweep", sweep)

        census = await client.get(f"/v1/census?algorithm={ALGORITHM}&size=5")
        check("census", census)
        if sum(census.get("census", {}).values()) != census.get("roots"):
            problems.append("census: counts do not sum to roots")

        witness = await client.post(
            "/v1/witness", {"algorithm": ALGORITHM, "config": SMOKE_CONFIG}
        )
        check("witness", witness)

        messages = []
        async for message in client.stream(
            {"algorithm": ALGORITHM, "config": SMOKE_CONFIG}
        ):
            messages.append(message)
        if not messages or messages[0].get("type") != "hello":
            problems.append(f"stream: no hello message ({messages[:1]})")
        if not messages or messages[-1].get("type") != "done":
            problems.append(f"stream: no done message ({messages[-1:]})")
        elif messages[-1].get("outcome") != witness["trace"]["outcome"]:
            problems.append("stream: outcome disagrees with the witness trace")

        telemetry = await client.get("/v1/telemetry")
        for problem in validate_telemetry(telemetry):
            problems.append(f"telemetry: {problem}")
        counters = telemetry.get("metrics", {}).get("counters", {})
        if counters.get("serve.requests_total", 0) < 6:
            problems.append(f"telemetry: implausible request count {counters}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--sizes", default="2-6")
    parser.add_argument("--table-cache", default=None)
    parser.add_argument("--trace", default=None, help="server-side JSONL trace sink")
    args = parser.parse_args(list(argv) if argv is not None else None)

    shm_before = set(glob.glob("/dev/shm/repro_tbl_*"))
    port = _free_port()
    command = [
        sys.executable, "-m", "repro", "serve",
        "--port", str(port), "--workers", str(args.workers), "--sizes", args.sizes,
    ]
    if args.table_cache:
        command += ["--table-cache", args.table_cache]
    if args.trace:
        command += ["--trace", args.trace]
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")

    problems: List[str] = []
    started = time.time()
    proc = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        health = _wait_healthz(port, proc)
        print(f"server ready in {time.time() - started:.1f}s: {health['version']} "
              f"algorithms={health['algorithms']} sizes={health['sizes']}")
        asyncio.run(_exercise(port, problems))
    except Exception as exc:  # noqa: BLE001 - report, then tear down
        problems.append(f"smoke driver failed: {exc!r}")
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            stdout, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            problems.append("server did not drain within 60s of SIGTERM")
    if proc.returncode != 0:
        problems.append(f"server exited {proc.returncode}: {stderr[-2000:]}")
    leaked = sorted(set(glob.glob("/dev/shm/repro_tbl_*")) - shm_before)
    if leaked:
        problems.append(f"leaked /dev/shm table stores: {leaked}")

    if problems:
        print("service-smoke FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("service-smoke: every endpoint answered with a valid schema, "
          "shutdown drained cleanly, no /dev/shm table store leaked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
