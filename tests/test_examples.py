"""Every example script runs to completion the way a reader would run it.

Each ``examples/*.py`` is started as a subprocess with ``PYTHONPATH=src``
and must exit 0, so an example that imports a deleted API fails here rather
than in a user's terminal.  ``serve_quickstart.py`` is left to
``test_serve_docs.py``, which already runs it against the README.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted(
    path for path in (REPO / "examples").glob("*.py") if path.name != "serve_quickstart.py"
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, (
        f"{script.name} exited {completed.returncode}:\n{completed.stderr[-2000:]}"
    )
