"""The central stream/document schema registry.

Every machine-readable contract the repo publishes carries a version
tag of the form ``iotls-<name>/<version>``.  Before this module those
identifiers were string literals scattered across telemetry, analysis,
serve, the CLI, and the tools -- nine-plus copies with nothing keeping
them in sync with each other or with the validators in
``tools/validate_streams.py``.  This registry is now the single source
of truth:

* every schema is declared **once** here, with its kind (JSONL stream
  vs. single JSON document), a one-line description, and -- when the
  contract is externally consumed -- the name of its validator function
  in ``tools/validate_streams.py``,
* every producer imports its identifier from here (the module-level
  ``*_SCHEMA`` constants keep the historical names), and
* reprolint rule **RL022** (``stream-schema-contract``) statically
  enforces both halves: an ``iotls-*/N`` literal anywhere else in
  ``src``/``tools`` is a violation, and a declared validator that
  ``tools/validate_streams.py`` does not define is a violation.

The registration calls below are deliberately **literal** (constant
name/version/validator arguments): RL022 reads this file's AST, so the
registry must be statically evaluable without importing the package.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ACCESS_LOG_SCHEMA",
    "API_SURFACE_SCHEMA",
    "DRIFT_REPORT_SCHEMA",
    "EXPECTATIONS_SCHEMA",
    "HEALTH_STREAM_SCHEMA",
    "LEDGER_SCHEMA",
    "MANIFEST_SCHEMA",
    "PROFILE_SCHEMA",
    "RESOURCE_SUMMARY_SCHEMA",
    "SLO_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "STATUS_SCHEMA",
    "STREAM_SCHEMA_PREFIX",
    "StreamSchema",
    "TRACE_STREAM_SCHEMA",
    "TREND_SCHEMA",
    "all_schemas",
    "get_schema",
    "is_registered",
    "schema_id",
]

#: Every published identifier starts with this prefix.
STREAM_SCHEMA_PREFIX = "iotls-"


@dataclass(frozen=True)
class StreamSchema:
    """One published contract: identity, shape, and validation hook."""

    #: Short name (the ``<name>`` in ``iotls-<name>/<version>``).
    name: str
    version: int
    #: ``jsonl-stream`` (line-delimited, header-first) or ``document``
    #: (one JSON object).
    kind: str
    description: str
    #: Name of the validator function in ``tools/validate_streams.py``
    #: (``None`` for internal documents validated by their own loaders).
    validator: str | None = None

    @property
    def id(self) -> str:
        """The full wire identifier, e.g. ``iotls-trace-stream/1``."""
        return f"{STREAM_SCHEMA_PREFIX}{self.name}/{self.version}"


#: The registry.  Keep registrations literal -- RL022 parses this file.
REGISTRY: tuple[StreamSchema, ...] = (
    StreamSchema(
        name="trace-stream",
        version=1,
        kind="jsonl-stream",
        description="chunked trace export: header, record/revocation-event "
        "lines, one trailing summary (iotls trace --stream-out, serve bodies)",
        validator="validate_trace_stream",
    ),
    StreamSchema(
        name="run-ledger",
        version=1,
        kind="jsonl-stream",
        description="append-only cross-run observability store; one "
        "self-contained entry per line (.iotls/ledger.jsonl)",
        validator="validate_run_ledger",
    ),
    StreamSchema(
        name="health-stream",
        version=1,
        kind="jsonl-stream",
        description="run-health heartbeat stream: header, seq-monotonic "
        "heartbeats, one trailing summary (--heartbeat-out)",
        validator="validate_run_health",
    ),
    StreamSchema(
        name="serve-access",
        version=1,
        kind="jsonl-stream",
        description="fleet-service access log: header, seq-monotonic request "
        "lifecycle events, at most one trailing summary",
        validator="validate_access_log",
    ),
    StreamSchema(
        name="bench-trend",
        version=1,
        kind="document",
        description="benchmark trajectory report over the run ledger's "
        "bench entries (iotls runs trend --json)",
        validator="validate_bench_trend",
    ),
    StreamSchema(
        name="slo",
        version=1,
        kind="document",
        description="declarative benchmark SLO policy (tools/slo.json)",
        validator="validate_slo_policy",
    ),
    StreamSchema(
        name="serve-status",
        version=1,
        kind="document",
        description="fleet-service GET /status snapshot: queue, pool, cache, "
        "resident state, access counters",
        validator="validate_serve_status",
    ),
    StreamSchema(
        name="resources",
        version=1,
        kind="document",
        description="ResourceSampler summary: peak heap/RSS, gc and CPU "
        "readings for one run",
        validator="validate_resource_summary",
    ),
    StreamSchema(
        name="manifest",
        version=1,
        kind="document",
        description="blake2s-named canonical run manifest, byte-identical "
        "across worker counts",
        validator=None,
    ),
    StreamSchema(
        name="telemetry",
        version=1,
        kind="document",
        description="metrics snapshot export (counters/gauges/histograms)",
        validator=None,
    ),
    StreamSchema(
        name="profile",
        version=1,
        kind="document",
        description="span-based profile aggregation (--profile-out)",
        validator=None,
    ),
    StreamSchema(
        name="paper-expectations",
        version=1,
        kind="document",
        description="calibrated paper cells the drift gate audits against "
        "(packaged expected/paper.json)",
        validator=None,
    ),
    StreamSchema(
        name="drift-report",
        version=1,
        kind="document",
        description="iotls check outcome: per-cell drift verdicts",
        validator=None,
    ),
    StreamSchema(
        name="api-surface",
        version=1,
        kind="document",
        description="public API surface baseline (tools/api_surface.json)",
        validator=None,
    ),
)

_BY_NAME = {schema.name: schema for schema in REGISTRY}
_BY_ID = {schema.id: schema for schema in REGISTRY}


def schema_id(name: str) -> str:
    """The full identifier registered under ``name`` (raises on unknown)."""
    try:
        return _BY_NAME[name].id
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unregistered schema name {name!r}; known: {known}") from None


def get_schema(identifier: str) -> StreamSchema:
    """The registry entry for a full ``iotls-<name>/<v>`` identifier."""
    try:
        return _BY_ID[identifier]
    except KeyError:
        known = ", ".join(sorted(_BY_ID))
        raise KeyError(
            f"unregistered schema id {identifier!r}; known: {known}"
        ) from None


def is_registered(identifier: str) -> bool:
    """True when ``identifier`` names a registered schema (full id)."""
    return identifier in _BY_ID


def all_schemas() -> tuple[StreamSchema, ...]:
    """Every registered schema, in registration order."""
    return REGISTRY


# ----------------------------------------------------------------------
# The historical constant names, now all derived from the registry.
# ----------------------------------------------------------------------
TRACE_STREAM_SCHEMA = schema_id("trace-stream")
LEDGER_SCHEMA = schema_id("run-ledger")
HEALTH_STREAM_SCHEMA = schema_id("health-stream")
ACCESS_LOG_SCHEMA = schema_id("serve-access")
TREND_SCHEMA = schema_id("bench-trend")
SLO_SCHEMA = schema_id("slo")
STATUS_SCHEMA = schema_id("serve-status")
RESOURCE_SUMMARY_SCHEMA = schema_id("resources")
MANIFEST_SCHEMA = schema_id("manifest")
SNAPSHOT_SCHEMA = schema_id("telemetry")
PROFILE_SCHEMA = schema_id("profile")
EXPECTATIONS_SCHEMA = schema_id("paper-expectations")
DRIFT_REPORT_SCHEMA = schema_id("drift-report")
API_SURFACE_SCHEMA = schema_id("api-surface")
