"""One rep of a batch workload, in a fresh process.

Usage (from ``run.py``, with ``PYTHONPATH`` pointing at the checkout's
``src``)::

    python perfbench/child.py <workload> <result.json> [--setup-only]

The child imports the program, does the workload's set-up, records the clock
reading at which it was ready, runs the workload's calls into the public API,
and writes timings, outputs and the program's own counters to
``result.json``.  ``run.py`` checks them.

When ``PERFBENCH_PROBE_DIR`` is set a ``speed.Probe`` samples the host's
speed from import to the end of the work, and when ``PERFBENCH_TRACE_DIR`` is
set the timing wrappers are installed, both at import of this module.
Spawned pool workers re-import the parent's main module, so they sample too,
install the same wrappers and write their own spans.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import speed
import tracer

_probe = speed.start_from_env()
tracer.install_from_env()

_clock = time.perf_counter

ALGORITHM = "shibata-visibility2"
#: Robots per configuration in build-census and explore-ssync.
SIZE = 8


def _counters() -> dict:
    from repro.obs import metrics

    snapshot = metrics.snapshot()
    return {"counters": snapshot["counters"], "gauges": snapshot["gauges"]}


# ---------------------------------------------------------------------------
# build-census: cold n=8 shard-store build, then the exhaustive FSYNC census.
# ---------------------------------------------------------------------------

def setup_build_census() -> dict:
    from repro.algorithms.registry import create_algorithm
    from repro.core.sharded_tables import sharded_successor_table  # noqa: F401

    return {"algorithm": create_algorithm(ALGORITHM)}


def run_build_census(state: dict) -> dict:
    import numpy as np
    from repro.core.sharded_tables import sharded_successor_table

    t0 = _clock()
    # The store goes under REPRO_TABLE_CACHE, an empty directory per rep, in
    # shards of REPRO_TABLE_SHARD_ROWS rows (set by run.py).
    table = sharded_successor_table(state["algorithm"], SIZE)
    t1 = _clock()
    census = table.fsync_verdict(np.arange(table.view.count)).root_census
    t2 = _clock()
    return {
        "timings": {"build_s": t1 - t0, "census_s": t2 - t1},
        "outputs": {"census": census, "rows": int(table.view.count), "shards": int(table.shards)},
    }


# ---------------------------------------------------------------------------
# explore-ssync: what `repro explore --size 8 --mode ssync --kernel table
# --workers 2` calls, minus witness extraction.
# ---------------------------------------------------------------------------

def setup_explore_ssync() -> dict:
    from repro.enumeration.polyhex import enumerate_canonical_node_sets
    from repro.explore import build_transition_graph, classify  # noqa: F401

    return {"roots": enumerate_canonical_node_sets(SIZE)}


def run_explore_ssync(state: dict) -> dict:
    from repro.explore import build_transition_graph, classify

    t0 = _clock()
    graph = build_transition_graph(
        state["roots"], algorithm_name=ALGORITHM, mode="ssync", workers=2, kernel="table"
    )
    t1 = _clock()
    classification = classify(graph)
    t2 = _clock()
    return {
        "timings": {"explore_s": t1 - t0, "classify_s": t2 - t1},
        "outputs": {
            "census": classification.counts(graph.roots),
            "roots": len(graph.roots),
            "vertices": graph.num_nodes,
            "edges": graph.num_edges,
        },
    }


# ---------------------------------------------------------------------------
# synth-cegis: `repro synth --base shibata-visibility2 --max-iterations 1`.
# ---------------------------------------------------------------------------

def setup_synth_cegis() -> dict:
    from repro.synth import synthesize  # noqa: F401

    return {}


def run_synth_cegis(state: dict) -> dict:
    from repro.synth import synthesize

    t0 = _clock()
    # The CLI's defaults, spelled out, but for one CEGIS iteration.
    result = synthesize(
        base_name=ALGORITHM,
        size=7,
        max_iterations=1,
        chain_budget=600,
        max_depth=30,
        branch=6,
        workers=1,
        ssync_validate=True,
        allow_amend=False,
        amend_branch=10,
        kernel="auto",
    )
    t1 = _clock()
    digest = hashlib.sha256(
        json.dumps(result.ruleset.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()
    return {
        "timings": {"synth_s": t1 - t0},
        "outputs": {
            "candidates": result.candidates_evaluated,
            "explores": result.explores,
            "final_ok": result.final_ok,
            "extend_rules": result.extend_rules,
            "validated": result.validated,
            "ruleset_sha256": digest,
        },
    }


WORKLOADS = {
    "build-census": (setup_build_census, run_build_census),
    "explore-ssync": (setup_explore_ssync, run_explore_ssync),
    "synth-cegis": (setup_synth_cegis, run_synth_cegis),
}


def main(argv) -> int:
    workload, out_path = argv[0], argv[1]
    setup_only = "--setup-only" in argv[2:]
    setup, run = WORKLOADS[workload]
    state = setup()
    record = {"ready_at": _clock(), "pid": os.getpid()}
    if not setup_only:
        record.update(run(state))
        record["work_end"] = _clock()
        record.update(_counters())
    if _probe is not None:
        _probe.stop()
    tracer.dump()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
