"""Gathering-as-a-service: an async query API over precomputed tables.

The north star's millions-of-users axis: the successor-table kernel answers
any (configuration, algorithm, schedule) question in microseconds once the
table is built, so a persistent process that builds the n≤8 tables *once*
and keeps them hot turns the whole reproduction into a queryable service.

* :mod:`repro.serve.service` — the transport-agnostic core: table loading
  (optionally from the table stores of ``--table-cache``), table publication
  for sibling workers, LRU response caches and the request micro-batcher
  that funnels concurrent verifies into one vectorized gather;
* :mod:`repro.serve.http` — the stdlib asyncio HTTP/1.1 + WebSocket server
  with per-request spans, latency histograms and graceful SIGTERM drain;
* :mod:`repro.serve.protocol` — request parsing and response schemas (one
  module owns the wire format);
* :mod:`repro.serve.client` — the asyncio client and the async load
  generator behind ``BENCH_serve.json``.

Start one with ``python -m repro serve`` (see the README's "Serving"
section for the endpoints and schemas).
"""
from .cache import LruCache
from .client import LoadResult, ServeClient, ServeError, run_load
from .http import GatheringServer, ServerThread, serve_forever
from .protocol import ProtocolError, response_problems
from .service import DEFAULT_ALGORITHMS, DEFAULT_SIZES, GatheringService

__all__ = [
    "DEFAULT_ALGORITHMS",
    "DEFAULT_SIZES",
    "GatheringServer",
    "GatheringService",
    "LoadResult",
    "LruCache",
    "ProtocolError",
    "ServeClient",
    "ServeError",
    "ServerThread",
    "response_problems",
    "run_load",
    "serve_forever",
]
