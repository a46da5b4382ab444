"""The server under test: enter the CLI's serve path from the benchmark's files.

Usage (from ``run.py``)::

    python perfbench/serve_launcher.py serve --port P

The arguments go to ``repro.cli.main`` unchanged, so the server runs the same
entry point as ``python -m repro serve``.  With ``PERFBENCH_PROBE_DIR`` set,
a ``speed.Probe`` samples the host's speed from the first line until
``run.py`` sends SIGUSR1 once the server is ready.  With
``PERFBENCH_TRACE_DIR`` set, the timing wrappers are installed first and the
spans are written after the server drains on SIGTERM.
"""
from __future__ import annotations

import signal
import sys

import speed
import tracer

if __name__ == "__main__":
    probe = speed.start_from_env()
    signal.signal(signal.SIGUSR1, lambda *_: probe is not None and probe.stop())
    tracer.install_from_env()
    from repro.cli import main

    status = main(sys.argv[1:])
    tracer.dump()
    sys.exit(status)
