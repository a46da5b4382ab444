"""Timing wrappers installed from outside around public functions of ``repro``.

A traced run imports the program, calls :func:`install`, and the wrapped
functions append one span record per call to an in-memory list: ``(span id,
parent span id, name, start, end, items)``.  The parent is whatever span is
current in the caller's context (a ``contextvars`` variable, so concurrent
asyncio tasks each keep their own chain).  Spans are written out once, at the
end of the process, or after every task in a pool worker, because the pool
terminates its workers without running exit hooks.

Span names are the per-layer names of the benchmark: the module under
``src/repro`` followed by the function.  The ``TARGETS`` table below is the
whole mapping.
"""
from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Environment variable naming the directory spans are written to.  Set by
#: ``run.py`` for traced children; spawned pool workers inherit it.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes

# (module, attribute path, span name, kind, items)
#   kind: "sync" | "async" | "gen" (time each next()) | "genlife" (one span
#         from first next() to exhaustion) | "count" (calls and seconds only,
#         no span: for helpers called millions of times) | "flush" (sync span,
#         then write spans: pool-worker entry points)
#   items: None (1 per call), "len_result", "len_arg0", "requests" (futures
#          of the batch about to flush) or "yields"
TARGETS: Tuple[Tuple[str, str, str, str, Optional[str]], ...] = (
    ("repro.enumeration.polyhex", "enumerate_canonical_node_sets", "enumeration", "sync", "len_result"),
    ("repro.enumeration.polyhex", "iter_canonical_node_sets", "enumeration", "genlife", "yields"),
    ("repro.algorithms.visibility2", "ShibataGatheringAlgorithm.compute", "algorithms.compute", "sync", None),
    ("repro.algorithms.composed", "ComposedAlgorithm.compute", "algorithms.compute", "sync", None),
    ("repro.synth.ruleset", "OverrideAlgorithm.compute", "algorithms.compute", "sync", None),
    ("repro.core.view", "View.from_bitmask", "core.view.from_bitmask", "sync", None),
    ("repro.core.table_kernel", "resolve_rows_arrays", "core.table_kernel.resolve", "sync", "len_arg0"),
    ("repro.core.table_kernel", "CanonicalIndex.lookup", "core.table_kernel.index_lookup", "sync", "len_arg0"),
    ("repro.core.table_kernel", "SuccessorTable.build", "core.table_kernel.build", "sync", None),
    ("repro.core.table_kernel", "SuccessorTable.fsync_verdict", "core.table_kernel.fsync_verdict", "sync", None),
    ("repro.core.table_kernel", "SuccessorTable.derive", "core.table_kernel.derive", "sync", None),
    ("repro.core.table_kernel", "SuccessorTable.expand_row", "core.table_kernel.expand_row", "sync", None),
    ("repro.core.table_kernel", "table_in_scope", "core.table_kernel.scope_check", "count", None),
    ("repro.core.table_kernel", "_codes_chunk", "core.runner.worker_chunk", "flush", None),
    ("repro.core.sharded_tables", "build_sharded_table", "core.sharded_tables.build", "sync", None),
    ("repro.core.sharded_tables", "open_sharded_table", "core.sharded_tables.open", "sync", None),
    ("repro.core.shared_tables", "publish_table", "core.shared_tables.publish", "sync", None),
    ("repro.core.runner", "run_chunked_tasks", "core.runner.chunk_wait", "gen", None),
    ("repro.explore.transitions", "build_transition_graph", "explore.transitions.bfs", "sync", None),
    ("repro.explore.transitions", "_expand_chunk", "core.runner.worker_chunk", "flush", None),
    ("repro.explore.analyzer", "strongly_connected_components", "explore.analyzer.scc", "sync", None),
    ("repro.explore.analyzer", "classify", "explore.analyzer.classify", "sync", None),
    ("repro.synth.search", "repair_chain", "synth.search.repair", "sync", None),
    ("repro.synth.cegis", "synthesize", "synth.cegis", "sync", None),
    ("repro.serve.http", "Request.json", "serve.http.decode", "sync", None),
    ("repro.serve.http", "GatheringServer._handle_http", "serve.http.request", "async", None),
    ("repro.serve.protocol", "parse_verify", "serve.protocol.parse", "sync", None),
    ("repro.serve.protocol", "parse_sweep", "serve.protocol.parse", "sync", None),
    ("repro.serve.service", "GatheringService.handle_verify", "serve.service.handle", "async", None),
    ("repro.serve.service", "GatheringService.handle_sweep", "serve.service.handle", "async", None),
    ("repro.serve.service", "GatheringService.submit_batched", "serve.service.submit", "async", None),
    ("repro.serve.service", "GatheringService._flush", "serve.service.flush", "sync", "requests"),
    ("repro.serve.service", "GatheringService.compute_results", "serve.service.kernel", "sync", "len_arg0"),
    ("repro.serve.service", "GatheringService.startup", "serve.service.startup", "sync", None),
)


class Tracer:
    """Span records and call aggregates of one process."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, float, float, int]] = []
        self.aggregates: Dict[str, List[float]] = {}
        self.current: "contextvars.ContextVar[int]" = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)

    def flush(self, directory: str) -> None:
        """Append this process's spans to its file in ``directory`` and clear them."""
        if not self.spans and not self.aggregates:
            return
        record = {"pid": os.getpid(), "spans": self.spans, "aggregates": self.aggregates}
        path = os.path.join(directory, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []
        self.aggregates = {}


#: The process's tracer once :func:`install` ran (``None`` when untraced).
TRACER: Optional[Tracer] = None


def _items(kind: Optional[str], args: tuple, result: Any) -> int:
    if kind is None:
        return 1
    if kind == "len_result":
        return len(result)
    if kind == "len_arg0":
        return len(args[0]) if args else 0
    return 0


def _make_wrapper(tracer: Tracer, fn: Callable, name: str, kind: str,
                  items: Optional[str], bound: bool) -> Callable:
    current = tracer.current
    # Methods receive ``self`` first; the items rules look past it.
    skip = 1 if bound else 0

    if kind == "count":
        def counted(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row = tracer.aggregates.setdefault(name, [0, 0.0])
                row[0] += 1
                row[1] += _clock() - t0
        return functools.wraps(fn)(counted)

    if kind == "async":
        async def traced_async(*args, **kwargs):
            parent = current.get()
            sid = tracer.next_id()
            token = current.set(sid)
            t0 = _clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                t1 = _clock()
                current.reset(token)
                tracer.spans.append((sid, parent, name, t0, t1, 1))
        return functools.wraps(fn)(traced_async)

    if kind == "gen":
        def traced_gen(*args, **kwargs):
            parent = current.get()
            inner = fn(*args, **kwargs)
            while True:
                sid = tracer.next_id()
                token = current.set(sid)
                t0 = _clock()
                produced = 0
                try:
                    item = next(inner)
                    produced = 1
                except StopIteration:
                    return
                finally:
                    t1 = _clock()
                    current.reset(token)
                    tracer.spans.append((sid, parent, name, t0, t1, produced))
                yield item
        return functools.wraps(fn)(traced_gen)

    if kind == "genlife":
        def traced_life(*args, **kwargs):
            parent = current.get()
            sid = tracer.next_id()
            count = 0
            t0 = None
            try:
                for item in fn(*args, **kwargs):
                    if t0 is None:
                        t0 = _clock()
                    count += 1
                    yield item
            finally:
                if t0 is not None:
                    tracer.spans.append((sid, parent, name, t0, _clock(), count))
        return functools.wraps(fn)(traced_life)

    flush_dir = os.environ.get(TRACE_DIR_ENV) if kind == "flush" else None

    def traced(*args, **kwargs):
        parent = current.get()
        sid = tracer.next_id()
        n = 1
        if items == "requests":
            pending = args[0]._pending.get(args[1])
            n = len(pending.futures) if pending is not None else 0
        token = current.set(sid)
        t0 = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = _clock()
            current.reset(token)
        if items not in (None, "requests"):
            n = _items(items, args[skip:], result)
        tracer.spans.append((sid, parent, name, t0, t1, n))
        if flush_dir:
            tracer.flush(flush_dir)
        return result
    return functools.wraps(fn)(traced)


def _rebind(original: Callable, wrapped: Callable) -> None:
    """Point every ``repro`` module global that holds ``original`` at ``wrapped``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapped


def install(targets=TARGETS) -> Tracer:
    """Wrap every target function in this process; returns the tracer."""
    global TRACER
    if TRACER is not None:
        return TRACER
    tracer = Tracer()
    for module_name, *_ in targets:
        importlib.import_module(module_name)
    for module_name, path, name, kind, items in targets:
        module = sys.modules[module_name]
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_make_wrapper(tracer, raw.__func__, name, kind, items, True))
            else:
                wrapped = _make_wrapper(tracer, raw, name, kind, items, True)
            setattr(owner, attr, wrapped)
        else:
            original = getattr(module, attr)
            _rebind(original, _make_wrapper(tracer, original, name, kind, items, False))
    TRACER = tracer
    return tracer


def install_from_env() -> Optional[Tracer]:
    """Install the wrappers when this process is part of a traced run."""
    if os.environ.get(TRACE_DIR_ENV):
        return install()
    return None


def dump() -> None:
    """Write the remaining spans of this process (end of a traced child)."""
    directory = os.environ.get(TRACE_DIR_ENV)
    if TRACER is not None and directory:
        TRACER.flush(directory)


def load_spans(directory: str) -> Tuple[List[tuple], Dict[str, List[float]]]:
    """Every span of a traced run, ids made unique across processes."""
    spans: List[tuple] = []
    aggregates: Dict[str, List[float]] = {}
    for entry in sorted(os.listdir(directory)):
        if not entry.startswith("spans-"):
            continue
        with open(os.path.join(directory, entry), encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                base = int(record["pid"]) << 32
                for sid, parent, name, t0, t1, items in record["spans"]:
                    spans.append(
                        (base + sid, base + parent if parent else 0, name, t0, t1, items)
                    )
                for name, (calls, seconds) in record["aggregates"].items():
                    row = aggregates.setdefault(name, [0, 0.0])
                    row[0] += calls
                    row[1] += seconds
    return spans, aggregates
