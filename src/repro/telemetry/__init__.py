"""Observability for the IoTLS reproduction: metrics, manifests, profiles.

The paper's pipeline is a *measurement system* -- ≈17M passive
connections over 27 months plus the active probing campaigns -- and
real TLS measurement tooling treats per-handshake telemetry as a
first-class artifact.  This package instruments the reproduction the
same way, with zero external dependencies:

* :class:`MetricsRegistry` -- named counters and count/sum histograms
  (:mod:`repro.telemetry.metrics`),
* :func:`profile_call` -- a per-module ``cProfile`` profile of one
  command (:mod:`repro.telemetry.profiling`),
* the fleet service's :class:`AccessLog` (:mod:`repro.telemetry.access`),
* declarative benchmark SLOs over the trajectory
  (:mod:`repro.telemetry.slo`),
* run manifests, whose ``metrics`` section is the machine-readable
  copy of a ``--telemetry`` run's counts (:mod:`repro.telemetry.provenance`),
* a human summary table of the registry (:mod:`repro.telemetry.export`),
* a process-wide opt-in runtime (:mod:`repro.telemetry.runtime`);
  disabled by default and no-op cheap when off.

See ``docs/observability.md`` for the metric catalog and the profile.
"""

from .access import ACCESS_LOG_SCHEMA, AccessLog
from .export import summary_table
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
from .metrics import Counter, Histogram, MetricsRegistry
from .profiling import profile_call, profile_document
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
from .runtime import TelemetryRuntime, configure, enabled, get, get_registry
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

__all__ = [
    "ACCESS_LOG_SCHEMA",
    "API_SURFACE_SCHEMA",
    "AccessLog",
    "Counter",
    "DEFAULT_LEDGER_PATH",
    "DRIFT_REPORT_SCHEMA",
    "EXPECTATIONS_SCHEMA",
    "Histogram",
    "LEDGER_SCHEMA",
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "PROFILE_SCHEMA",
    "SLO_SCHEMA",
    "STATUS_SCHEMA",
    "STREAM_SCHEMA_PREFIX",
    "Slo",
    "SloPolicyError",
    "StreamSchema",
    "TRACE_STREAM_SCHEMA",
    "TelemetryRuntime",
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
    "profile_call",
    "profile_document",
    "render_diff",
    "render_entries",
    "render_entry",
    "render_trend_report",
    "render_verdicts",
    "rewrite_ledger",
    "schema_id",
    "trend_report",
    "write_manifest",
    "enabled",
    "get",
    "get_registry",
    "summary_table",
]
