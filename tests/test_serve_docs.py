"""The README "Serving" section, replayed against a live server.

Doctest-style rot protection: every ``curl`` line and the WebSocket python
snippet documented in README.md are extracted verbatim and replayed against
a real in-process server, each response validated against the wire schemas —
so a documented request shape that the service stops accepting (or a
documented endpoint that disappears) fails here, not in a user's terminal.
The ``examples/serve_quickstart.py`` script runs as a subprocess the same
way a reader would run it.
"""
from __future__ import annotations

import asyncio
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

from repro.obs import validate_telemetry
from repro.serve import GatheringService, ServeClient, ServerThread, response_problems

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "serve_quickstart.py"

#: URL path prefix -> response_problems endpoint name.
ENDPOINT_BY_PATH = {
    "/healthz": "healthz",
    "/v1/verify": "verify",
    "/v1/sweep": "sweep",
    "/v1/census": "census",
    "/v1/witness": "witness",
}

_CURL = re.compile(r"""curl\s+-s\s+"?(?:http://)?[\w.]+:8123(/[^\s"']*)"?(?:\s+-d\s+'(.*)')?\s*$""")


def _serving_section() -> str:
    text = README.read_text()
    start = text.index("## Serving")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def _documented_curls():
    section = _serving_section()
    calls = []
    for line in section.splitlines():
        match = _CURL.search(line)
        if match:
            calls.append((match.group(1), match.group(2)))
    return calls


def _python_snippets():
    return re.findall(r"```python\n(.*?)```", _serving_section(), flags=re.DOTALL)


@pytest.fixture(scope="module")
def server():
    service = GatheringService(algorithms=("shibata-visibility2",), sizes=(2, 3, 4, 5))
    with ServerThread(service) as base_url:
        host, port = base_url.split("//")[1].rsplit(":", 1)
        yield host, int(port)


def test_readme_documents_every_endpoint():
    paths = {path.split("?")[0] for path, _ in _documented_curls()}
    assert paths == {"/healthz", "/v1/verify", "/v1/sweep", "/v1/census",
                     "/v1/witness", "/v1/telemetry"}


def test_readme_curl_snippets_replay_with_valid_schemas(server):
    host, port = server
    calls = _documented_curls()
    assert len(calls) >= 6

    async def replay():
        async with ServeClient(host, port) as client:
            for path, body in calls:
                if body is None:
                    payload = await client.get(path)
                else:
                    payload = await client.post(path, json.loads(body))
                endpoint = ENDPOINT_BY_PATH.get(path.split("?")[0])
                if endpoint is None:
                    assert path.split("?")[0] == "/v1/telemetry"
                    problems = validate_telemetry(payload)
                else:
                    problems = response_problems(endpoint, payload)
                assert not problems, f"{path}: {problems}"

    asyncio.run(replay())


def test_readme_websocket_snippet_replays(server, capsys):
    host, port = server
    snippets = [s for s in _python_snippets() if "client.stream" in s]
    assert len(snippets) == 1, "README must document exactly one stream snippet"
    code = snippets[0].replace("8123", str(port)).replace("127.0.0.1", host)
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
    lines = [line for line in capsys.readouterr().out.splitlines() if line]
    assert lines[0].startswith("hello"), lines
    assert lines[-1].startswith("done gathered"), lines
    assert any(line.startswith("round") for line in lines), lines


def test_serve_quickstart_example_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(README.parent / "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, str(EXAMPLE)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, result.stderr
    out = result.stdout
    for marker in ("verify:", "sweep:", "census:", "witness:", "stream:", "served:"):
        assert marker in out, out
    assert "gathered" in out
