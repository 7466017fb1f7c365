"""Observability for the IoTLS reproduction: metrics and traces.

The paper's pipeline is a *measurement system* -- ≈17M passive
connections over 27 months plus the active probing campaigns -- and
real TLS measurement tooling treats per-handshake telemetry as a
first-class artifact.  This package instruments the reproduction the
same way, with zero external dependencies:

* :class:`MetricsRegistry` -- named counters, gauges, and fixed-bucket
  histograms (:mod:`repro.telemetry.metrics`),
* :class:`Tracer` -- nested spans with monotonic timing
  (:mod:`repro.telemetry.tracing`),
* the fleet service's :class:`AccessLog` (:mod:`repro.telemetry.access`),
* declarative benchmark SLOs over the trajectory
  (:mod:`repro.telemetry.slo`),
* exporters -- JSON snapshots and a human summary table
  (:mod:`repro.telemetry.export`),
* a process-wide opt-in runtime (:mod:`repro.telemetry.runtime`);
  disabled by default and no-op cheap when off.

See ``docs/observability.md`` for the metric catalog and span taxonomy.
"""

from .access import ACCESS_LOG_SCHEMA, AccessLog
from .export import (
    SNAPSHOT_SCHEMA,
    metrics_snapshot,
    summary_table,
    write_snapshot,
)
from .ledger import (
    DEFAULT_LEDGER_PATH,
    LEDGER_SCHEMA,
    append_entry,
    artifacts_live,
    build_entry,
    diff_entries,
    filter_entries,
    find_entry,
    gc_entries,
    host_key,
    ledger_trend,
    load_ledger,
    lookup_config,
    render_diff,
    render_entries,
    render_entry,
    rewrite_ledger,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profiling import PathStat, Profiler, render_hot_table
from .provenance import (
    MANIFEST_SCHEMA,
    artifact_digest,
    build_manifest,
    deterministic_metrics,
    host_date,
    host_fingerprint,
    manifest_digest,
    write_manifest,
)
from .schemas import (
    API_SURFACE_SCHEMA,
    DRIFT_REPORT_SCHEMA,
    EXPECTATIONS_SCHEMA,
    PROFILE_SCHEMA,
    STATUS_SCHEMA,
    STREAM_SCHEMA_PREFIX,
    TRACE_STREAM_SCHEMA,
    StreamSchema,
    all_schemas,
    get_schema,
    is_registered,
    schema_id,
)
from .runtime import (
    TelemetryRuntime,
    configure,
    disable,
    enable,
    enabled,
    get,
    get_registry,
    get_tracer,
    reset,
)
from .slo import (
    SLO_SCHEMA,
    Slo,
    SloPolicyError,
    evaluate_slos,
    load_slo_policy,
    render_trend_report,
    render_verdicts,
    trend_report,
)
from .tracing import NULL_SPAN, Span, Tracer

__all__ = [
    "ACCESS_LOG_SCHEMA",
    "API_SURFACE_SCHEMA",
    "AccessLog",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_LEDGER_PATH",
    "DRIFT_REPORT_SCHEMA",
    "EXPECTATIONS_SCHEMA",
    "Gauge",
    "Histogram",
    "LEDGER_SCHEMA",
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "NULL_SPAN",
    "PROFILE_SCHEMA",
    "PathStat",
    "Profiler",
    "SLO_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "STATUS_SCHEMA",
    "STREAM_SCHEMA_PREFIX",
    "Slo",
    "SloPolicyError",
    "Span",
    "StreamSchema",
    "TRACE_STREAM_SCHEMA",
    "TelemetryRuntime",
    "Tracer",
    "all_schemas",
    "append_entry",
    "artifact_digest",
    "artifacts_live",
    "build_entry",
    "build_manifest",
    "diff_entries",
    "filter_entries",
    "find_entry",
    "gc_entries",
    "get_schema",
    "host_date",
    "host_fingerprint",
    "host_key",
    "configure",
    "deterministic_metrics",
    "evaluate_slos",
    "is_registered",
    "ledger_trend",
    "load_ledger",
    "load_slo_policy",
    "lookup_config",
    "manifest_digest",
    "render_diff",
    "render_entries",
    "render_entry",
    "render_hot_table",
    "render_trend_report",
    "render_verdicts",
    "rewrite_ledger",
    "schema_id",
    "trend_report",
    "write_manifest",
    "disable",
    "enable",
    "enabled",
    "get",
    "get_registry",
    "get_tracer",
    "metrics_snapshot",
    "reset",
    "summary_table",
    "write_snapshot",
]
