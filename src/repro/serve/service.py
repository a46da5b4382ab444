"""The gathering service core: tables, caches and request coalescing.

:class:`GatheringService` is transport-agnostic — the asyncio HTTP server
and the in-process test harness call the same handler methods and therefore
return byte-identical payloads.  At startup the service materializes the
successor tables of its configured algorithms over the configured
state-space sizes (optionally opening them from the table stores under
``--table-cache``) and, when asked, publishes them through
:mod:`repro.core.shared_tables` so worker processes serving the same port
map one physical copy.

Concurrent ``/v1/verify`` and ``/v1/sweep`` requests of the same
``(algorithm, max_rounds)`` are **coalesced on the next event-loop turn**:
the first submission opens a pending batch and schedules its flush with
``loop.call_soon``, every request submitted in the same turn joins it, and
one :func:`repro.core.runner._table_batch_results` call — one vectorized
gather over the memoized functional-graph summary — answers them all.  No
timer runs, so a lone request waits for nothing.  Batch sizes land in the
``serve.batch_size`` histogram.  Results are byte-identical to serial
:func:`repro.core.runner.execute_configuration` calls in input order, which
is exactly what the concurrency property test asserts.
"""
from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..algorithms.registry import available_algorithms
from ..core.configuration import Configuration
from ..core.sharded_tables import cache_key
from ..core.engine import run_execution
from ..core.runner import ConfigurationResult, execute_configuration, worker_algorithm
from ..core.scheduler import scheduler_from_spec
from ..core.trace import Outcome
from ..io.serialization import configuration_to_dict, trace_to_dict
from ..obs import get_logger
from ..obs import metrics as _obs
from ..obs import span
from .cache import LruCache
from .protocol import (
    CensusRequest,
    ProtocolError,
    SweepRequest,
    VerifyRequest,
)

_LOG = get_logger("serve.service")

__all__ = ["GatheringService", "DEFAULT_ALGORITHMS", "DEFAULT_SIZES"]

#: The algorithms a default service instance loads tables for: the paper's
#: hand-written algorithm and the synthesized Theorem-2-closing rule set.
DEFAULT_ALGORITHMS: Tuple[str, ...] = (
    "shibata-visibility2",
    "shibata-visibility2-synth2",
)

#: Default preloaded state-space sizes.  The ISSUE's n<=8 service is
#: ``--sizes 2-8``; the default stops at the paper's n=7 so cold starts stay
#: sub-second, and out-of-preload sizes within the table scope build lazily.
DEFAULT_SIZES: Tuple[int, ...] = (2, 3, 4, 5, 6, 7)

#: Entries of the ``/v1/witness`` trace cache.
WITNESS_CACHE_SIZE = 2048


class _PendingBatch:
    """The requests coalesced into one flush."""

    __slots__ = ("configurations", "futures")

    def __init__(self) -> None:
        self.configurations: List[Configuration] = []
        #: (future, item count) per submitter, resolved in submission order.
        self.futures: List[Tuple["asyncio.Future[List[ConfigurationResult]]", int]] = []


class GatheringService:
    """Tables, caches and handlers behind every transport."""

    def __init__(
        self,
        algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
        sizes: Sequence[int] = DEFAULT_SIZES,
        publish: bool = False,
        table_cache: Optional[str] = None,
    ) -> None:
        unknown = [name for name in algorithms if name not in available_algorithms()]
        if unknown:
            raise ValueError(
                f"unknown algorithms: {unknown}; available: {available_algorithms()}"
            )
        self.algorithm_names: Tuple[str, ...] = tuple(algorithms)
        self.sizes: Tuple[int, ...] = tuple(sorted(set(int(s) for s in sizes)))
        self.publish = publish
        self.table_cache = table_cache
        self.census_cache = LruCache("census", maxsize=64)
        self.witness_cache = LruCache("witness", maxsize=WITNESS_CACHE_SIZE)
        #: Handles of the tables *this* process published (owner: unpublish).
        self.published_handles: List[Any] = []
        #: Batches awaiting their flush, keyed by (algorithm, max_rounds).
        self._pending: Dict[Tuple[str, int], _PendingBatch] = {}
        self._started = False

    # ------------------------------------------------------------- lifecycle
    def startup(self, attach_handles: Sequence[Any] = ()) -> None:
        """Build (or attach) the successor tables once, before serving.

        ``attach_handles`` is the worker path: instead of building, the
        process maps the tables the parent published and answers from the
        same physical pages.
        """
        if self._started:
            return
        from ..core.table_kernel import record_peak_rss, scoped_table

        if attach_handles:
            from ..core.shared_tables import attach_table

            for handle in attach_handles:
                attach_table(handle)
            self._started = True
            return
        for name in self.algorithm_names:
            algorithm = worker_algorithm(name)
            for size in self.sizes:
                # Past the in-RAM bound the table is a shard store that
                # builds (or reopens) once here; requests stream from it.
                with span("serve.load_table", algorithm=name, size=size):
                    table = scoped_table(algorithm, size, disk_cache=self.table_cache)
                    if table is None:
                        _LOG.warning("size %d outside every table scope; skipping", size)
                        continue
                    # Resolve the functional-graph summary now so the first
                    # request does not pay for it.
                    table.fsync_summary()
                if self.publish:
                    from ..core.shared_tables import publish_table

                    self.published_handles.append(publish_table(table, name))
        record_peak_rss()
        self._started = True

    def shutdown(self) -> None:
        """Remove every private table store published (idempotent; SIGTERM drain)."""
        if self.published_handles:
            from ..core.shared_tables import unpublish_table

            while self.published_handles:
                unpublish_table(self.published_handles.pop())
        self._started = False

    # ------------------------------------------------------------ fingerprint
    def fingerprint(self, algorithm_name: str) -> str:
        """The cache identity of an algorithm (name + version + content hash)."""
        return cache_key(worker_algorithm(algorithm_name))

    def _algorithm(self, name: str):
        if name not in self.algorithm_names and name not in available_algorithms():
            raise ProtocolError(
                f"unknown algorithm {name!r}; available: {list(available_algorithms())}",
                status=404,
                field="algorithm",
            )
        return worker_algorithm(name)

    # ------------------------------------------------------------- computation
    def compute_results(
        self,
        configurations: Sequence[Configuration],
        algorithm_name: str,
        max_rounds: int,
        scheduler: Optional[str] = None,
    ) -> List[ConfigurationResult]:
        """Serial reference path: one result per configuration, input order.

        FSYNC requests go through the batch table path (with its built-in
        per-item packed fallback for out-of-scope roots); non-FSYNC
        schedulers run per item with a *fresh* scheduler instance each, so a
        seeded spec reproduces the CLI's single-run answer exactly.
        """
        algorithm = self._algorithm(algorithm_name)
        if scheduler not in (None, "fsync"):
            return [
                execute_configuration(
                    configuration,
                    algorithm,
                    scheduler=scheduler_from_spec(scheduler),
                    max_rounds=max_rounds,
                    kernel="packed",
                )
                for configuration in configurations
            ]
        from ..core.runner import _table_batch_results

        return _table_batch_results(configurations, algorithm, max_rounds)

    async def submit_batched(
        self,
        configurations: Sequence[Configuration],
        algorithm_name: str,
        max_rounds: int,
    ) -> List[ConfigurationResult]:
        """Join the pending batch of ``(algorithm, max_rounds)``.

        The first submission opens the batch and schedules its flush for the
        next event-loop turn; every submission of the same turn appends its
        configurations, and one vectorized gather then resolves every
        submitter's future in submission order.
        """
        self._algorithm(algorithm_name)  # validate before queueing
        loop = asyncio.get_running_loop()
        key = (algorithm_name, max_rounds)
        batch = self._pending.get(key)
        if batch is None:
            batch = self._pending[key] = _PendingBatch()
            loop.call_soon(self._flush, key)
        future: "asyncio.Future[List[ConfigurationResult]]" = loop.create_future()
        batch.configurations.extend(configurations)
        batch.futures.append((future, len(configurations)))
        return await future

    def _flush(self, key: Tuple[str, int]) -> None:
        batch = self._pending.pop(key, None)
        if batch is None or not batch.futures:
            return
        algorithm_name, max_rounds = key
        _obs.counter("serve.batches_total").inc()
        _obs.histogram("serve.batch_size", _obs.DEFAULT_COUNT_BUCKETS).observe(
            len(batch.configurations)
        )
        try:
            with span(
                "serve.batch",
                algorithm=algorithm_name,
                max_rounds=max_rounds,
                items=len(batch.configurations),
                requests=len(batch.futures),
            ):
                results = self.compute_results(
                    batch.configurations, algorithm_name, max_rounds
                )
        except BaseException as exc:  # resolve every waiter, never hang them
            for future, _ in batch.futures:
                if not future.done():
                    future.set_exception(exc)
            return
        offset = 0
        for future, count in batch.futures:
            if not future.done():
                future.set_result(results[offset : offset + count])
            offset += count

    # --------------------------------------------------------------- payloads
    @staticmethod
    def _result_payload(result: ConfigurationResult) -> Dict[str, Any]:
        return {
            "initial": configuration_to_dict(Configuration(result.initial_nodes)),
            "outcome": result.outcome.value,
            "rounds": result.rounds,
            "total_moves": result.total_moves,
            "initial_diameter": result.initial_diameter,
            "collision_kind": result.collision_kind,
        }

    async def handle_verify(
        self, request: VerifyRequest, request_id: str
    ) -> Dict[str, Any]:
        if request.scheduler in (None, "fsync"):
            results = await self.submit_batched(
                [request.configuration], request.algorithm, request.max_rounds
            )
        else:
            results = self.compute_results(
                [request.configuration],
                request.algorithm,
                request.max_rounds,
                scheduler=request.scheduler,
            )
        payload = self._result_payload(results[0])
        payload.update(
            request_id=request_id,
            algorithm=request.algorithm,
            scheduler=request.scheduler or "fsync",
            max_rounds=request.max_rounds,
        )
        if request.include_trace:
            payload["trace"] = trace_to_dict(
                self._trace(request), include_rounds=True
            )
        return payload

    async def handle_sweep(
        self, request: SweepRequest, request_id: str
    ) -> Dict[str, Any]:
        results = await self.submit_batched(
            request.configurations, request.algorithm, request.max_rounds
        )
        census: Dict[str, int] = {}
        for result in results:
            census[result.outcome.value] = census.get(result.outcome.value, 0) + 1
        return {
            "request_id": request_id,
            "algorithm": request.algorithm,
            "max_rounds": request.max_rounds,
            "count": len(results),
            "census": dict(sorted(census.items())),
            "results": [self._result_payload(result) for result in results],
        }

    def handle_census(self, request: CensusRequest, request_id: str) -> Dict[str, Any]:
        """The whole-space FSYNC census of an algorithm at one size (cached)."""
        algorithm = self._algorithm(request.algorithm)
        fingerprint = self.fingerprint(request.algorithm)
        key = (fingerprint, request.size)
        cached = self.census_cache.get(key)
        if cached is None:
            import numpy as np

            from ..core.table_kernel import scoped_table

            with span("serve.census", algorithm=request.algorithm, size=request.size):
                table = scoped_table(algorithm, request.size, disk_cache=self.table_cache)
                if table is None:
                    raise ProtocolError(
                        f"size {request.size} is outside every table scope", field="size"
                    )
                verdict = table.fsync_verdict(np.arange(table.view.count))
                census = verdict.root_census
                cached = self.census_cache.put(
                    key,
                    {
                        "roots": int(table.view.count),
                        "census": census,
                        "all_roots_gather": set(census) <= {"gathered", "safe"},
                    },
                )
            was_cached = False
        else:
            was_cached = True
        payload = dict(cached)
        payload.update(
            request_id=request_id,
            algorithm=request.algorithm,
            size=request.size,
            fingerprint=fingerprint,
            cached=was_cached,
        )
        return payload

    def _trace(self, request: VerifyRequest):
        """One recorded execution (the witness/stream/trace body)."""
        algorithm = self._algorithm(request.algorithm)
        scheduler = (
            None if request.scheduler in (None, "fsync")
            else scheduler_from_spec(request.scheduler)
        )
        return run_execution(
            request.configuration,
            algorithm,
            scheduler=scheduler,
            max_rounds=request.max_rounds,
            record_rounds=True,
            kernel="table",
        )

    def handle_witness(self, request: VerifyRequest, request_id: str) -> Dict[str, Any]:
        """A fully replayable trace, cached by (fingerprint, root, budget)."""
        from ..grid.packing import pack_nodes

        fingerprint = self.fingerprint(request.algorithm)
        key = (
            fingerprint,
            pack_nodes(request.configuration.nodes),
            request.max_rounds,
            request.scheduler or "fsync",
        )
        cached = self.witness_cache.get(key)
        if cached is None:
            with span("serve.witness", algorithm=request.algorithm):
                cached = self.witness_cache.put(
                    key, trace_to_dict(self._trace(request), include_rounds=True)
                )
            was_cached = False
        else:
            was_cached = True
        return {
            "request_id": request_id,
            "algorithm": request.algorithm,
            "fingerprint": fingerprint,
            "cached": was_cached,
            "trace": cached,
        }

    def stream_messages(self, request: VerifyRequest, request_id: str) -> List[Dict[str, Any]]:
        """The ``/v1/stream`` WebSocket playback: hello, one round each, done."""
        trace = self._trace(request)
        messages: List[Dict[str, Any]] = [
            {
                "type": "hello",
                "request_id": request_id,
                "algorithm": request.algorithm,
                "scheduler": request.scheduler or "fsync",
                "max_rounds": request.max_rounds,
                "initial": configuration_to_dict(trace.initial),
            }
        ]
        for record in trace.rounds:
            messages.append(
                {
                    "type": "round",
                    "index": record.index,
                    "configuration": configuration_to_dict(record.configuration),
                    "moves": {
                        f"{pos.q},{pos.r}": direction.name
                        for pos, direction in record.moves.items()
                    },
                }
            )
        messages.append(
            {
                "type": "done",
                "request_id": request_id,
                "outcome": trace.outcome.value,
                "rounds": trace.num_rounds,
                "total_moves": trace.total_moves,
                "collision_kind": trace.collision_kind,
                "final": configuration_to_dict(trace.final),
                "gathered": trace.outcome is Outcome.GATHERED,
            }
        )
        return messages
