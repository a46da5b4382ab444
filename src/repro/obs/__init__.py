"""Zero-dependency observability: metrics, spans, structured logs, manifests.

``repro.obs`` is the stdlib-only telemetry subsystem behind every execution
path — the packed/table kernels, the parallel batch runner, the
explorer and the CEGIS loop all report into one process-wide registry:

* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket histograms in
  a thread-safe registry, with drain/merge semantics so worker processes
  ship their counts back inside chunked-task results and parallel totals
  stay *exact*, not sampled;
* :mod:`repro.obs.tracing` — contextvar-nested timed spans and point events,
  correlated by a per-run id and appended to an optional JSONL sink;
* :mod:`repro.obs.logging` — structured (optionally JSON-lines) stdlib
  logging for the ``repro.*`` logger hierarchy;
* :mod:`repro.obs.report` — snapshot/merge/export: JSON snapshot, text
  table, Prometheus-style exposition, per-run manifests and the
  ``repro-telemetry/1`` file schema written by ``--telemetry PATH``.

Everything here imports nothing outside the standard library.
"""
from .logging import get_logger, setup_logging
from .metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    MetricsRegistry,
    counter,
    enabled,
    export_delta,
    gauge,
    histogram,
    merge,
    registry,
    reset,
    set_enabled,
    snapshot,
)
from .report import (
    TELEMETRY_SCHEMA,
    merge_snapshots,
    package_version,
    render_prometheus,
    render_text,
    run_manifest,
    telemetry_payload,
    validate_telemetry,
    write_telemetry,
)
from .tracing import (
    close_sink,
    configure_sink,
    event,
    new_run_id,
    record_span,
    run_id,
    set_run_id,
    sink_path,
    span,
)

__all__ = [
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_SECONDS_BUCKETS",
    "MetricsRegistry",
    "TELEMETRY_SCHEMA",
    "close_sink",
    "configure_sink",
    "counter",
    "enabled",
    "event",
    "export_delta",
    "gauge",
    "get_logger",
    "histogram",
    "merge",
    "merge_snapshots",
    "new_run_id",
    "package_version",
    "record_span",
    "registry",
    "render_prometheus",
    "render_text",
    "reset",
    "run_id",
    "run_manifest",
    "set_enabled",
    "set_run_id",
    "setup_logging",
    "sink_path",
    "snapshot",
    "span",
    "telemetry_payload",
    "validate_telemetry",
    "write_telemetry",
]
