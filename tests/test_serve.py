"""The gathering service: protocol, caches, concurrency and shutdown.

The centerpiece is the byte-identity property: N concurrent ``/v1/verify``
clients — whose requests the service micro-batches through one vectorized
table gather — must receive responses *byte-identical* to what a serial
packed-kernel execution of the same roots would produce.  Responses are
serialized with sorted keys and pinned request ids precisely so this
comparison can be exact.

The SIGTERM test runs the real ``python -m repro serve`` subprocess with two
workers (tables published as private table stores) and asserts a clean exit
with zero leaked ``/dev/shm/repro_tbl_*`` directories; the session-scoped
``no_shared_memory_leak`` fixture backstops every other test here too.
"""
from __future__ import annotations

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

import pytest

pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.configuration import Configuration
from repro.core.runner import execute_configuration, worker_algorithm
from repro.enumeration.polyhex import enumerate_connected_configurations
from repro.io.serialization import configuration_to_dict
from repro.serve import (
    GatheringService,
    LruCache,
    ProtocolError,
    ServeClient,
    ServeError,
    ServerThread,
    response_problems,
)
from repro.serve.http import _dump
from repro.serve.protocol import parse_census, parse_sweep, parse_verify

ALGORITHM = "shibata-visibility2"
SIZES = (2, 3, 4, 5)


@pytest.fixture(scope="module")
def service() -> GatheringService:
    return GatheringService(sizes=SIZES, batch_window=0.001)


@pytest.fixture(scope="module")
def server(service):
    """One live server for the whole module (tables built once)."""
    with ServerThread(service) as base_url:
        host, port = base_url.split("//")[1].rsplit(":", 1)
        yield host, int(port)


def _run(coroutine):
    return asyncio.run(coroutine)


def _roots(size: int, limit: int):
    return enumerate_connected_configurations(size)[:limit]


def _expected_verify_bytes(configuration, request_id, max_rounds=1000):
    """The serial reference: packed kernel, the CLI's per-root path."""
    result = execute_configuration(
        configuration,
        worker_algorithm(ALGORITHM),
        max_rounds=max_rounds,
        kernel="packed",
    )
    payload = {
        "initial": configuration_to_dict(Configuration(result.initial_nodes)),
        "outcome": result.outcome.value,
        "rounds": result.rounds,
        "total_moves": result.total_moves,
        "initial_diameter": result.initial_diameter,
        "collision_kind": result.collision_kind,
        "request_id": request_id,
        "algorithm": ALGORITHM,
        "scheduler": "fsync",
        "max_rounds": max_rounds,
    }
    return _dump(payload)


# ---------------------------------------------------------------------------
# Protocol unit tests
# ---------------------------------------------------------------------------

def test_parse_verify_rejects_malformed_requests():
    with pytest.raises(ProtocolError):
        parse_verify([1, 2, 3])
    with pytest.raises(ProtocolError, match="config"):
        parse_verify({"algorithm": ALGORITHM})
    with pytest.raises(ProtocolError, match="algorithm"):
        parse_verify({"config": [[0, 0]]})
    with pytest.raises(ProtocolError, match="max_rounds"):
        parse_verify({"config": [[0, 0]], "algorithm": ALGORITHM, "max_rounds": 0})
    with pytest.raises(ProtocolError, match="max_rounds"):
        parse_verify(
            {"config": [[0, 0]], "algorithm": ALGORITHM, "max_rounds": 10**7}
        )
    with pytest.raises(ProtocolError, match="pairs"):
        parse_verify({"config": [[0, 0, 0]], "algorithm": ALGORITHM})
    with pytest.raises(ProtocolError, match="scheduler"):
        parse_verify(
            {"config": [[0, 0]], "algorithm": ALGORITHM, "scheduler": "no-such"}
        )


def test_parse_verify_accepts_packed_and_cross_checks():
    nodes = [[0, 0], [1, 0], [0, 1]]
    packed = Configuration(tuple((q, r) for q, r in nodes))
    data = configuration_to_dict(packed)
    request = parse_verify(
        {"config": data["nodes"], "packed": data["packed"], "algorithm": ALGORITHM}
    )
    assert len(request.configuration.nodes) == 3
    with pytest.raises(ProtocolError):  # mismatched cross-check must fail
        parse_verify(
            {"config": [[5, 5]], "packed": data["packed"], "algorithm": ALGORITHM}
        )


def test_parse_sweep_and_census_bounds():
    request = parse_sweep(
        {"configs": [[[0, 0], [1, 0]], {"config": [[0, 0]]}], "algorithm": ALGORITHM}
    )
    assert len(request.configurations) == 2
    with pytest.raises(ProtocolError, match="configs"):
        parse_sweep({"configs": [], "algorithm": ALGORITHM})
    with pytest.raises(ProtocolError, match=r"configs\[1\]"):
        parse_sweep({"configs": [[[0, 0]], "nope"], "algorithm": ALGORITHM})
    assert parse_census({"algorithm": ALGORITHM}).size == 7
    with pytest.raises(ProtocolError, match="size"):
        parse_census({"algorithm": ALGORITHM, "size": 0})


def test_lru_cache_evicts_and_counts():
    cache = LruCache("unit-test", maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh 'a'
    cache.put("c", 3)  # evicts 'b', the least recently used
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3


# ---------------------------------------------------------------------------
# The byte-identity property under concurrency
# ---------------------------------------------------------------------------

def test_concurrent_verify_byte_identical_to_serial(server):
    """N concurrent clients == serial packed-kernel answers, byte for byte."""
    host, port = server
    cases = []
    for size in SIZES:
        for configuration in _roots(size, 12):
            request_id = f"prop-{len(cases):04d}"
            cases.append(
                (
                    request_id,
                    {"algorithm": ALGORITHM, "config": [list(n) for n in configuration.nodes]},
                    _expected_verify_bytes(configuration, request_id),
                )
            )

    async def one_client(slice_of_cases):
        received = []
        async with ServeClient(host, port) as client:
            for request_id, payload, _expected in slice_of_cases:
                status, body, headers = await client.request_bytes(
                    "POST", "/v1/verify", payload, {"X-Request-Id": request_id}
                )
                assert status == 200
                assert headers.get("x-request-id") == request_id
                received.append(body)
        return received

    async def main():
        clients = 8
        slices = [cases[i::clients] for i in range(clients)]
        return await asyncio.gather(*(one_client(s) for s in slices))

    all_bodies = _run(main())
    clients = 8
    slices = [cases[i::clients] for i in range(clients)]
    checked = 0
    for slice_of_cases, bodies in zip(slices, all_bodies):
        for (request_id, _payload, expected), body in zip(slice_of_cases, bodies):
            assert body == expected, f"response for {request_id} diverged"
            checked += 1
    assert checked == len(cases) and checked >= 30


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_verify_matches_packed_execution_property(service, data):
    """Any root, any budget: the batched service answer equals the packed run."""
    size = data.draw(st.sampled_from(SIZES))
    roots = enumerate_connected_configurations(size)
    configuration = roots[data.draw(st.integers(0, len(roots) - 1))]
    max_rounds = data.draw(st.sampled_from([1, 3, 50, 1000]))
    request = parse_verify(
        {
            "config": [list(n) for n in configuration.nodes],
            "algorithm": ALGORITHM,
            "max_rounds": max_rounds,
        }
    )

    async def main():
        service.startup()
        return await service.handle_verify(request, "prop")

    payload = _run(main())
    reference = execute_configuration(
        configuration, worker_algorithm(ALGORITHM), max_rounds=max_rounds, kernel="packed"
    )
    assert payload["outcome"] == reference.outcome.value
    assert payload["rounds"] == reference.rounds
    assert payload["total_moves"] == reference.total_moves
    assert payload["collision_kind"] == reference.collision_kind


def test_sweep_batches_and_matches_serial(server):
    host, port = server
    configurations = _roots(5, 40)
    payload = {
        "algorithm": ALGORITHM,
        "configs": [[list(n) for n in c.nodes] for c in configurations],
        "max_rounds": 600,
    }

    async def main():
        async with ServeClient(host, port) as client:
            return await client.post("/v1/sweep", payload)

    response = _run(main())
    assert response_problems("sweep", response) == []
    assert response["count"] == len(configurations)
    for configuration, result in zip(configurations, response["results"]):
        reference = execute_configuration(
            configuration, worker_algorithm(ALGORITHM), max_rounds=600, kernel="packed"
        )
        assert result["outcome"] == reference.outcome.value
        assert result["rounds"] == reference.rounds
    census = response["census"]
    assert sum(census.values()) == len(configurations)


# ---------------------------------------------------------------------------
# The other endpoints against the live server
# ---------------------------------------------------------------------------

def test_healthz_and_telemetry(server):
    host, port = server

    async def main():
        async with ServeClient(host, port) as client:
            health = await client.get("/healthz")
            telemetry = await client.get("/v1/telemetry")
            status, body, _ = await client.request_bytes(
                "GET", "/v1/telemetry?format=prometheus"
            )
            return health, telemetry, status, body

    health, telemetry, prom_status, prom_body = _run(main())
    assert response_problems("healthz", health) == []
    assert health["sizes"] == list(SIZES)
    assert telemetry["schema"] == "repro-telemetry/1"
    counters = telemetry["metrics"]["counters"]
    assert counters.get("serve.requests_total", 0) >= 1
    assert "serve.request.seconds" in telemetry["metrics"]["histograms"]
    assert prom_status == 200
    assert b"serve_requests_total" in prom_body


def test_census_cached_and_consistent(server, service):
    host, port = server

    async def main():
        async with ServeClient(host, port) as client:
            first = await client.get(f"/v1/census?algorithm={ALGORITHM}&size=5")
            second = await client.get(f"/v1/census?algorithm={ALGORITHM}&size=5")
            return first, second

    first, second = _run(main())
    assert response_problems("census", first) == []
    assert second["cached"] is True
    assert first["census"] == second["census"]
    assert first["fingerprint"] == service.fingerprint(ALGORITHM)
    # the census agrees with a direct whole-space verdict
    roots = enumerate_connected_configurations(5)
    assert first["roots"] == len(roots)
    assert sum(first["census"].values()) == len(roots)


def test_witness_replays_and_caches(server):
    host, port = server
    configuration = _roots(4, 8)[5]
    payload = {
        "algorithm": ALGORITHM,
        "config": [list(n) for n in configuration.nodes],
    }

    async def main():
        async with ServeClient(host, port) as client:
            first = await client.post("/v1/witness", payload)
            second = await client.post("/v1/witness", payload)
            return first, second

    first, second = _run(main())
    assert response_problems("witness", first) == []
    assert first["cached"] is False or first["cached"] is True  # schema-checked
    assert second["cached"] is True
    assert first["trace"] == second["trace"]
    rounds = first["trace"]["round_records"]
    assert first["trace"]["outcome"] == "gathered"
    # the records cover every round plus the settled final configuration
    assert len(rounds) == first["trace"]["rounds"] + 1
    assert rounds[-1]["moves"] == {}


def test_stream_plays_back_the_trace(server):
    host, port = server
    configuration = _roots(4, 8)[3]
    payload = {
        "algorithm": ALGORITHM,
        "config": [list(n) for n in configuration.nodes],
    }

    async def main():
        messages = []
        async with ServeClient(host, port) as client:
            async for message in client.stream(payload):
                messages.append(message)
            witness = await client.post("/v1/witness", payload)
        return messages, witness

    messages, witness = _run(main())
    assert messages[0]["type"] == "hello"
    assert messages[-1]["type"] == "done"
    rounds = [m for m in messages if m["type"] == "round"]
    assert len(rounds) == witness["trace"]["rounds"] + 1
    assert messages[-1]["outcome"] == witness["trace"]["outcome"]
    assert messages[-1]["final"] == witness["trace"]["final"]


def test_error_payloads(server):
    host, port = server

    async def main():
        async with ServeClient(host, port) as client:
            errors = {}
            for name, coroutine in (
                ("unknown_algorithm", client.post("/v1/verify", {"algorithm": "nope", "config": [[0, 0]]})),
                ("bad_config", client.post("/v1/verify", {"algorithm": ALGORITHM, "config": "x"})),
                ("not_found", client.get("/v1/nope")),
            ):
                try:
                    await coroutine
                except ServeError as exc:
                    errors[name] = exc
            status, _, _ = await client.request_bytes("GET", "/v1/stream")
            return errors, status

    errors, stream_status = _run(main())
    assert errors["unknown_algorithm"].status == 404
    assert errors["bad_config"].status == 400
    assert errors["bad_config"].payload["error"]["field"] == "config"
    assert errors["not_found"].status == 404
    assert stream_status == 400  # plain HTTP on the WebSocket endpoint


def test_scheduler_requests_bypass_the_batcher(server):
    host, port = server
    configuration = _roots(4, 6)[2]
    payload = {
        "algorithm": ALGORITHM,
        "config": [list(n) for n in configuration.nodes],
        "scheduler": "round-robin:2",
        "max_rounds": 500,
    }

    async def main():
        async with ServeClient(host, port) as client:
            return await client.post("/v1/verify", payload)

    response = _run(main())
    from repro.core.scheduler import scheduler_from_spec

    reference = execute_configuration(
        configuration,
        worker_algorithm(ALGORITHM),
        scheduler=scheduler_from_spec("round-robin:2"),
        max_rounds=500,
        kernel="packed",
    )
    assert response["scheduler"] == "round-robin:2"
    assert response["outcome"] == reference.outcome.value
    assert response["rounds"] == reference.rounds


# ---------------------------------------------------------------------------
# Lifecycle: SIGTERM drain, worker publication, shm cleanliness
# ---------------------------------------------------------------------------

def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_sigterm_drains_and_unlinks_shared_memory(tmp_path):
    """``python -m repro serve --workers 2`` exits 0 on SIGTERM, shm clean."""
    before = set(glob.glob("/dev/shm/repro_tbl_*"))
    port = _free_port()
    import os

    import repro

    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            str(port),
            "--workers",
            "2",
            "--sizes",
            "2-4",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.time() + 90
        health = None
        while time.time() < deadline:
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/healthz", timeout=1
                ) as response:
                    health = json.loads(response.read())
                    break
            except (OSError, ValueError):
                if proc.poll() is not None:
                    break
                time.sleep(0.25)
        assert health is not None, (proc.poll(), proc.stderr.read() if proc.poll() is not None else "no healthz")
        assert response_problems("healthz", health) == []
        # tables are published for the worker while the service runs
        assert set(glob.glob("/dev/shm/repro_tbl_*")) - before
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/verify",
            data=json.dumps(
                {"algorithm": ALGORITHM, "config": [[0, 0], [1, 0], [2, 0]]}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            verdict = json.loads(response.read())
        assert verdict["outcome"] == "gathered"
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)
    assert proc.returncode == 0, stderr[-2000:]
    assert "serving on http://127.0.0.1:" in stdout
    leaked = sorted(set(glob.glob("/dev/shm/repro_tbl_*")) - before)
    assert not leaked, f"SIGTERM left segments behind: {leaked}"


def test_server_thread_shutdown_is_leak_free():
    before = set(glob.glob("/dev/shm/repro_tbl_*"))
    local = GatheringService(sizes=(2, 3), publish=True)
    with ServerThread(local) as base_url:
        host, port = base_url.split("//")[1].rsplit(":", 1)

        async def main():
            async with ServeClient(host, int(port)) as client:
                return await client.get("/healthz")

        assert _run(main())["status"] == "ok"
        assert set(glob.glob("/dev/shm/repro_tbl_*")) - before
    leaked = sorted(set(glob.glob("/dev/shm/repro_tbl_*")) - before)
    assert not leaked
