"""Unified batch execution: one subsystem for serial and parallel sweeps.

Exhaustive verification (experiment E2), the CLI, the benchmark harness and
ablation studies all need the same thing: *run one execution from each of many
initial configurations and stream back compact per-configuration results*.
This module is that subsystem.  It owns

* :class:`ConfigurationResult` — the compact summary of one execution;
* :func:`iter_result_chunks` — the streaming core, which executes
  configurations chunk-wise either serially or over a multiprocessing pool
  (one chunk of configurations per task, keeping the per-task payload large
  enough to amortize process overhead);
* :class:`ExecutionBatch` / :func:`run_many` — the collected form, with
  aggregate accessors and wall-clock accounting;
* :func:`run_sweep` — the ablation-grid API: the cross product of algorithms,
  schedulers and round budgets over a common configuration set.

A registry name resolves to the process-wide instance
(:func:`worker_algorithm`) on every path, so a batch — and every cell of a
sweep — reuses one algorithm object, its decision cache (see
:mod:`repro.core.engine`) and its successor tables.  Each parallel worker
process resolves the name the same way and reuses the instance for every
chunk it executes.

``kernel="table"`` batches follow one policy:

* an FSYNC batch is answered in the calling process by one table lookup per
  configuration (:func:`_table_batch_results`), whatever ``workers`` says —
  the lookups are cheap and a pool would parallelize only the marshalling;
* any other scheduler builds the batch's tables once, in this process and
  before the serial/parallel split.  Serial batches then run the table
  engine at every size; parallel batches publish the tables as table stores
  (:mod:`repro.core.shared_tables`) that every worker maps.
"""
from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..obs import get_logger
from ..obs import metrics as _obs
from ..obs import record_span as _obs_record_span
from .algorithm import GatheringAlgorithm
from .configuration import Configuration
from .engine import DEFAULT_MAX_ROUNDS, KERNELS, run_execution
from .scheduler import FullySynchronousScheduler, Scheduler, scheduler_from_spec
from .trace import Outcome

_LOG = get_logger("core.runner")

__all__ = [
    "ConfigurationResult",
    "ExecutionBatch",
    "SweepCell",
    "execute_configuration",
    "iter_result_chunks",
    "run_chunked_tasks",
    "run_many",
    "run_sweep",
    "worker_algorithm",
    "autotune_chunk_size",
    "DEFAULT_CHUNK_SIZE",
]

#: Default number of configurations per streamed chunk / parallel task when
#: the batch size is unknown (serial streaming over a lazy iterable).
DEFAULT_CHUNK_SIZE = 128


def autotune_chunk_size(total: int, workers: int) -> int:
    """Chunk size balancing fan-out overhead against load balance.

    A fixed 128-row chunk is badly matched to large parallel batches: a
    scheduled sweep of the 16,689 n=8 roots would split into 131 tasks, each
    paying pickling and IPC overhead.  Targeting ~4 chunks per worker keeps
    every worker busy to the end (a straggler chunk costs at most a quarter
    of one worker's share) while the per-task overhead is paid tens of times,
    not hundreds.  Bounds keep degenerate inputs sane: tiny batches still
    parallelize, huge ones do not balloon a single task's payload.
    """
    return max(32, min(4096, -(-total // (max(workers, 1) * 4))))

NodeTuple = Tuple[Tuple[int, int], ...]
ConfigurationLike = Union[Configuration, NodeTuple]


@dataclass(frozen=True)
class ConfigurationResult:
    """Outcome of one execution from one initial configuration."""

    #: Canonical node tuple of the initial configuration (hashable, compact).
    initial_nodes: NodeTuple
    #: Outcome of the execution.
    outcome: Outcome
    #: Number of rounds until termination (or until the failure was detected).
    rounds: int
    #: Total number of robot moves.
    total_moves: int
    #: Diameter of the initial configuration.
    initial_diameter: int
    #: Collision kind when the outcome is a collision.
    collision_kind: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        """Whether this configuration gathered successfully."""
        return self.outcome is Outcome.GATHERED


def _as_configuration(item: ConfigurationLike) -> Configuration:
    if isinstance(item, Configuration):
        return item
    return Configuration(item)


def execute_configuration(
    configuration: ConfigurationLike,
    algorithm: GatheringAlgorithm,
    scheduler: Optional[Scheduler] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    kernel: str = "packed",
) -> ConfigurationResult:
    """Run one execution and summarize its outcome compactly."""
    configuration = _as_configuration(configuration)
    trace = run_execution(
        configuration,
        algorithm,
        scheduler=scheduler,
        max_rounds=max_rounds,
        record_rounds=False,
        kernel=kernel,
    )
    return ConfigurationResult(
        initial_nodes=tuple((c.q, c.r) for c in configuration.sorted_nodes()),
        outcome=trace.outcome,
        rounds=trace.num_rounds,
        total_moves=trace.total_moves,
        initial_diameter=configuration.diameter(),
        collision_kind=trace.collision_kind,
    )


# ---------------------------------------------------------------------------
# Streaming core.
# ---------------------------------------------------------------------------

def run_chunked_tasks(payloads: Sequence, worker: Callable, pool) -> Iterator:
    """Yield ``worker(payload)`` for every payload, in order, from ``pool``.

    The shared fan-out primitive of the batch runner and the transition-graph
    explorer (:mod:`repro.explore`).  Both own a spawn-context
    multiprocessing ``pool`` (the explorer reuses one across BFS levels, so
    spawn start-up is paid once) and close it themselves.  ``worker`` must be
    a module-level function and the payloads picklable primitives (the spawn
    context re-imports the package in each child).
    """
    yield from pool.imap(worker, payloads)


_ChunkPayload = Tuple[str, Optional[str], List[NodeTuple], int, str, Tuple]

#: Per-worker-process algorithm instances, keyed by registry name.  Reusing
#: one instance across a worker's chunks is what the serial path does for the
#: whole batch: the decision cache — and, for ``kernel="table"``, the
#: successor table — is paid for once per process instead of once per chunk.
_WORKER_ALGORITHMS: Dict[str, GatheringAlgorithm] = {}


def worker_algorithm(algorithm_name: str) -> GatheringAlgorithm:
    """The process-local shared instance of a registered algorithm."""
    algorithm = _WORKER_ALGORITHMS.get(algorithm_name)
    if algorithm is None:
        from ..algorithms.registry import create_algorithm  # late: import cycle

        algorithm = _WORKER_ALGORITHMS[algorithm_name] = create_algorithm(algorithm_name)
    return algorithm


def _execute_chunk(payload: _ChunkPayload) -> Tuple[List[ConfigurationResult], Dict]:
    """Worker entry point: execute one chunk of configurations.

    Returns the results plus the worker registry's drained metrics delta
    (:func:`repro.obs.metrics.export_delta`), which the parent merges so
    parallel counter totals stay exact across process boundaries.

    The payload carries only picklable primitives (names, specs, node tuples
    and table handles); the algorithm is resolved through the
    per-process registry and the scheduler rebuilt per chunk.  Table handles
    (``kernel="table"``) are attached once per process: every chunk then
    answers from the parent's successor table instead of re-simulating or
    rebuilding per worker.
    """
    chunk_start = time.perf_counter()
    algorithm_name, scheduler_spec, node_tuples, max_rounds, kernel, handles = payload
    algorithm = worker_algorithm(algorithm_name)
    if handles:
        from .shared_tables import attach_table  # late: avoids an import cycle

        for handle in handles:
            attach_table(handle)
    scheduler = scheduler_from_spec(scheduler_spec)
    results = [
        execute_configuration(
            nodes, algorithm, scheduler=scheduler, max_rounds=max_rounds, kernel=kernel
        )
        for nodes in node_tuples
    ]
    # Per-chunk wall time: the histogram is what makes parallel load
    # imbalance visible (a few slow chunks dominating the sweep shows up as
    # a long tail here long before it shows in the aggregate speedup).
    _obs.histogram("runner.chunk_seconds").observe(time.perf_counter() - chunk_start)
    return results, _obs.export_delta()


def _in_process(kernel: str, scheduler: Union[None, str, Scheduler]) -> bool:
    """Whether a batch is answered in this process whatever ``workers`` says.

    That is an FSYNC ``kernel="table"`` batch: one table build and one
    functional-graph summary pass answer it, and a pool would parallelize
    only the marshalling of the answers.
    """
    return kernel == "table" and isinstance(
        scheduler_from_spec(scheduler), FullySynchronousScheduler
    )


def _table_batch_results(
    items: Iterable[ConfigurationLike],
    algorithm: GatheringAlgorithm,
    max_rounds: int,
) -> List[ConfigurationResult]:
    """FSYNC sweep of many configurations through the successor table.

    One table build and one pointer-doubling summary pass answer every
    configuration at once (:mod:`repro.core.table_kernel`); sizes past the
    in-RAM bound answer from the disk tier (:mod:`repro.core.sharded_tables`)
    — this is the batch path the n=10 census rides.  Items outside both
    scopes (disconnected, or beyond every bound) fall back to a per-item
    packed execution.  Results are byte-identical to
    :func:`execute_configuration` in input order.
    """
    import numpy as np

    from .table_kernel import scoped_table  # late: avoids an import cycle

    node_lists = _node_tuples(items)
    tables: Dict[int, object] = {}
    rows_by_size: Dict[int, List[Tuple[int, int]]] = {}
    results: List[Optional[ConfigurationResult]] = [None] * len(node_lists)
    positions_by_size: Dict[int, List[int]] = {}
    for position, nodes in enumerate(node_lists):
        positions_by_size.setdefault(len(nodes), []).append(position)
    for size, positions in positions_by_size.items():
        table = tables[size] = scoped_table(algorithm, size)
        rows = None
        if table is not None:
            # One vectorized canonical-index probe answers the whole size
            # group: translate every (already sorted) node list to its anchor,
            # int8-pack and hash-probe — never per-item python loops, and
            # never the Python-dict tuple index whose resident cost is exactly
            # what the sharded tier exists to avoid.
            arr = np.array([node_lists[p] for p in positions], dtype=np.int64)
            deltas = arr - arr[:, :1, :]
            in_range = np.all((deltas >= -128) & (deltas <= 127), axis=(1, 2))
            blocks = deltas.astype(np.int8).reshape(len(positions), 2 * size)
            rows = np.asarray(table.view.canonical_index.lookup(blocks))
            rows[~in_range] = -1
        for i, position in enumerate(positions):
            row = int(rows[i]) if rows is not None else -1
            if row < 0:
                results[position] = execute_configuration(
                    node_lists[position], algorithm, max_rounds=max_rounds, kernel="packed"
                )
            else:
                rows_by_size.setdefault(size, []).append((position, row))

    for size, pairs in rows_by_size.items():
        table = tables[size]
        rows = np.array([row for _, row in pairs], dtype=np.int32)
        outcomes, rounds, moves, kinds = table.batch_outcomes(rows, max_rounds)
        diameters = table.view.diameters[rows]
        for i, (position, row) in enumerate(pairs):
            results[position] = ConfigurationResult(
                initial_nodes=node_lists[position],
                outcome=outcomes[i],
                rounds=int(rounds[i]),
                total_moves=int(moves[i]),
                initial_diameter=int(diameters[i]),
                collision_kind=kinds[i],
            )
    return results  # type: ignore[return-value]


def _node_tuples(configurations: Iterable[ConfigurationLike]) -> List[NodeTuple]:
    """Sorted ``(q, r)`` tuples — the canonical node form of every batch path.

    Sorting never changes a result: :func:`execute_configuration` rebuilds a
    :class:`Configuration` (a node set) and reports its sorted nodes.
    """
    return [
        tuple((c.q, c.r) for c in item.sorted_nodes())
        if isinstance(item, Configuration)
        else tuple(sorted((int(q), int(r)) for q, r in item))
        for item in configurations
    ]


def iter_result_chunks(
    configurations: Iterable[ConfigurationLike],
    algorithm: Optional[GatheringAlgorithm] = None,
    algorithm_name: Optional[str] = None,
    scheduler: Union[None, str, Scheduler] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    kernel: str = "packed",
) -> Iterator[List[ConfigurationResult]]:
    """Execute every configuration, yielding results chunk by chunk, in order.

    Exactly one of ``algorithm`` / ``algorithm_name`` must be provided.  With
    ``workers > 1`` the chunks are fanned out over a multiprocessing pool —
    except for a ``kernel="table"`` FSYNC batch, which is answered in process
    (see the module docstring).  ``workers > 1`` requires ``algorithm_name``
    (algorithms are rebuilt from the registry inside each worker) and, when
    a scheduler is wanted, a textual scheduler spec (see
    :func:`~repro.core.scheduler.scheduler_from_spec`), on every kernel.
    ``chunk_size=None`` (the default) autotunes the parallel chunk size from
    the batch row count (:func:`autotune_chunk_size`); serial streaming uses
    :data:`DEFAULT_CHUNK_SIZE`.
    """
    # Counting happens here — once per yielded chunk, after worker deltas
    # merge — so serial and parallel sweeps report identically and
    # ``runner.configurations`` always equals the number of results produced.
    for chunk in _iter_result_chunks_uncounted(
        configurations,
        algorithm=algorithm,
        algorithm_name=algorithm_name,
        scheduler=scheduler,
        max_rounds=max_rounds,
        workers=workers,
        chunk_size=chunk_size,
        kernel=kernel,
    ):
        if chunk:
            _obs.counter("runner.configurations").inc(len(chunk))
            outcomes: Dict[str, int] = {}
            for result in chunk:
                value = result.outcome.value
                outcomes[value] = outcomes.get(value, 0) + 1
            for value, count in outcomes.items():
                _obs.counter(f"runner.outcome.{value}").inc(count)
        yield chunk


def _iter_result_chunks_uncounted(
    configurations: Iterable[ConfigurationLike],
    algorithm: Optional[GatheringAlgorithm] = None,
    algorithm_name: Optional[str] = None,
    scheduler: Union[None, str, Scheduler] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    kernel: str = "packed",
) -> Iterator[List[ConfigurationResult]]:
    """The streaming core behind :func:`iter_result_chunks` (no telemetry)."""
    if (algorithm is None) == (algorithm_name is None):
        raise ValueError("provide exactly one of algorithm / algorithm_name")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; available: {KERNELS}")
    if workers > 1:
        if algorithm_name is None:
            raise ValueError("parallel execution requires algorithm_name (registry lookup)")
        if isinstance(scheduler, Scheduler):
            raise ValueError(
                "parallel execution requires a scheduler spec string, not an instance"
            )

    if algorithm is None:
        algorithm = worker_algorithm(algorithm_name)
    scheduler_obj = scheduler_from_spec(scheduler)
    if _in_process(kernel, scheduler_obj):
        results = _table_batch_results(configurations, algorithm, max_rounds)
        step = chunk_size or DEFAULT_CHUNK_SIZE
        for start in range(0, len(results), step):
            yield results[start : start + step]
        return

    tables: List = []
    if kernel == "table":
        # Build every table the batch needs once, before the serial/parallel
        # split: the engine builds on demand only up to n=7, so without this
        # a serial batch past n=7 would run the packed kernel.
        from .table_kernel import scoped_table  # late: avoids an import cycle

        configurations = list(configurations)
        for size in sorted({len(item) for item in configurations}):
            table = scoped_table(algorithm, size)
            if table is not None:
                tables.append(table)

    if workers <= 1:
        if chunk_size is None:
            chunk_size = DEFAULT_CHUNK_SIZE
        chunk: List[ConfigurationResult] = []
        for item in configurations:
            chunk.append(
                execute_configuration(
                    item,
                    algorithm,
                    scheduler=scheduler_obj,
                    max_rounds=max_rounds,
                    kernel=kernel,
                )
            )
            if len(chunk) >= chunk_size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk
        return

    node_tuples = _node_tuples(configurations)
    if chunk_size is None:
        chunk_size = autotune_chunk_size(len(node_tuples), workers)
        _obs.gauge("runner.autotuned_chunk_size").set(chunk_size)
    pool = None
    published: List = []
    try:
        if tables:
            # Publish each table as a table store: every worker maps the one
            # table instead of rebuilding it.
            from .shared_tables import publish_table  # late: avoids an import cycle

            for table in tables:
                published.append(publish_table(table, algorithm_name))
        payloads: List[_ChunkPayload] = [
            (
                algorithm_name,
                scheduler,
                node_tuples[i : i + chunk_size],
                max_rounds,
                kernel,
                tuple(published),
            )
            for i in range(0, len(node_tuples), chunk_size)
        ]
        pool = multiprocessing.get_context("spawn").Pool(
            processes=min(workers, os.cpu_count() or 1, max(len(payloads), 1))
        )
        for results, delta in run_chunked_tasks(payloads, _execute_chunk, pool=pool):
            _obs.merge(delta)
            yield results
    finally:
        # Deterministic cleanup even when the consumer abandons the iterator:
        # the pool dies first, then the private table stores are removed.
        if pool is not None:
            pool.terminate()
            pool.join()
        if published:
            from .shared_tables import unpublish_table

            for handle in published:
                unpublish_table(handle)


# ---------------------------------------------------------------------------
# Collected batches.
# ---------------------------------------------------------------------------

@dataclass
class ExecutionBatch:
    """All results of one batch run, with aggregate accessors."""

    #: Name of the algorithm that was executed.
    algorithm_name: str
    #: Scheduler spec (or name) the batch ran under.
    scheduler_name: str = "fsync"
    #: Round budget per execution.
    max_rounds: int = DEFAULT_MAX_ROUNDS
    #: Per-configuration results, in input order.
    results: List[ConfigurationResult] = field(default_factory=list)
    #: Wall-clock seconds spent executing the batch.
    elapsed_seconds: float = 0.0
    #: Number of worker processes used (1 = serial).
    workers: int = 1

    @property
    def total(self) -> int:
        """Number of configurations executed."""
        return len(self.results)

    @property
    def successes(self) -> int:
        """Number of configurations that gathered successfully."""
        return sum(1 for r in self.results if r.succeeded)

    @property
    def success_rate(self) -> float:
        """Fraction of configurations that gathered successfully."""
        return self.successes / self.total if self.total else 0.0

    def outcome_counts(self) -> Dict[str, int]:
        """Histogram of outcomes by name."""
        counts: Dict[str, int] = {}
        for result in self.results:
            counts[result.outcome.value] = counts.get(result.outcome.value, 0) + 1
        return dict(sorted(counts.items()))

    def throughput(self) -> float:
        """Configurations per second (0.0 when no time was recorded)."""
        return self.total / self.elapsed_seconds if self.elapsed_seconds else 0.0


def run_many(
    configurations: Iterable[ConfigurationLike],
    algorithm: Optional[GatheringAlgorithm] = None,
    algorithm_name: Optional[str] = None,
    scheduler: Union[None, str, Scheduler] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    kernel: str = "packed",
    progress: Optional[Callable[[int, int], None]] = None,
) -> ExecutionBatch:
    """Execute every configuration and collect the results into a batch.

    ``progress`` is called as ``progress(done, total)`` after every completed
    configuration (serial) or chunk (parallel).  Parameters are shared with
    :func:`iter_result_chunks`.  The batch's ``workers`` (and its
    ``runner.batch`` span and log line) report the processes actually used:
    1 for an FSYNC ``kernel="table"`` batch, which ignores ``workers``.
    """
    config_list = list(configurations)
    total = len(config_list)
    if algorithm is not None:
        resolved_name = algorithm.name
    elif algorithm_name is not None:
        resolved_name = algorithm_name
    else:
        resolved_name = ""

    scheduler_name = (
        scheduler.name if isinstance(scheduler, Scheduler) else (scheduler or "fsync")
    )
    batch = ExecutionBatch(
        algorithm_name=resolved_name,
        scheduler_name=scheduler_name,
        max_rounds=max_rounds,
    )

    # Per-configuration progress granularity on the serial path matches the
    # seed harness; the parallel path reports per chunk.
    effective_chunk = 1 if (workers <= 1 and progress is not None) else chunk_size

    start = time.perf_counter()
    for chunk in iter_result_chunks(
        config_list,
        algorithm=algorithm,
        algorithm_name=algorithm_name,
        scheduler=scheduler,
        max_rounds=max_rounds,
        workers=workers,
        chunk_size=effective_chunk,
        kernel=kernel,
    ):
        batch.results.extend(chunk)
        if progress is not None:
            progress(len(batch.results), total)
    batch.elapsed_seconds = time.perf_counter() - start
    # The scheduler spec is known valid here: the batch has run.
    batch.workers = 1 if _in_process(kernel, scheduler) else max(workers, 1)
    _obs_record_span(
        "runner.batch",
        batch.elapsed_seconds,
        algorithm=resolved_name,
        scheduler=scheduler_name,
        kernel=kernel,
        workers=batch.workers,
        configurations=batch.total,
    )
    _LOG.info(
        "batch done: %s/%s kernel=%s workers=%d %d configurations in %.3fs",
        resolved_name, scheduler_name, kernel, batch.workers, batch.total,
        batch.elapsed_seconds,
    )
    return batch


# ---------------------------------------------------------------------------
# Ablation sweeps.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    """Aggregate result of one (algorithm, scheduler, round budget) grid cell."""

    algorithm_name: str
    scheduler_spec: str
    max_rounds: int
    total: int
    gathered: int
    success_rate: float
    outcomes: Tuple[Tuple[str, int], ...]
    mean_rounds: float
    elapsed_seconds: float

    def summary(self) -> Dict[str, object]:
        """Plain-dict form for tabulation and JSON output."""
        return {
            "algorithm": self.algorithm_name,
            "scheduler": self.scheduler_spec,
            "max_rounds": self.max_rounds,
            "configurations": self.total,
            "gathered": self.gathered,
            "success_rate": round(self.success_rate, 6),
            "outcomes": dict(self.outcomes),
            "mean_rounds": round(self.mean_rounds, 3),
            "seconds": round(self.elapsed_seconds, 3),
        }


def run_sweep(
    algorithm_names: Sequence[str],
    scheduler_specs: Sequence[str] = ("fsync",),
    max_rounds_grid: Sequence[int] = (DEFAULT_MAX_ROUNDS,),
    configurations: Optional[Iterable[ConfigurationLike]] = None,
    size: int = 7,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    kernel: str = "packed",
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[SweepCell]:
    """Run the full algorithm × scheduler × round-budget grid.

    Every cell executes the same configuration set (the exhaustive enumeration
    of ``size`` robots unless an explicit collection is given) and reduces to
    a :class:`SweepCell`.  ``progress`` is called per completed cell.
    """
    if configurations is None:
        from ..enumeration.polyhex import (  # late: avoids an import cycle
            enumerate_connected_configurations,
        )

        config_list: List[ConfigurationLike] = list(
            enumerate_connected_configurations(size)
        )
    else:
        config_list = list(configurations)

    cells: List[SweepCell] = []
    grid = [
        (name, spec, budget)
        for name in algorithm_names
        for spec in scheduler_specs
        for budget in max_rounds_grid
    ]
    for index, (name, spec, budget) in enumerate(grid):
        batch = run_many(
            config_list,
            algorithm_name=name,
            scheduler=spec,
            max_rounds=budget,
            workers=workers,
            chunk_size=chunk_size,
            kernel=kernel,
        )
        successful_rounds = [r.rounds for r in batch.results if r.succeeded]
        cells.append(
            SweepCell(
                algorithm_name=name,
                scheduler_spec=spec,
                max_rounds=budget,
                total=batch.total,
                gathered=batch.successes,
                success_rate=batch.success_rate,
                outcomes=tuple(sorted(batch.outcome_counts().items())),
                mean_rounds=(
                    sum(successful_rounds) / len(successful_rounds)
                    if successful_rounds
                    else 0.0
                ),
                elapsed_seconds=batch.elapsed_seconds,
            )
        )
        _obs.counter("runner.sweep_cells").inc()
        if progress is not None:
            progress(index + 1, len(grid))
    return cells
