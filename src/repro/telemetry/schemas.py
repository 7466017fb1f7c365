"""The central stream/document schema registry and its contracts.

Every machine-readable contract the repo publishes carries a version
tag of the form ``iotls-<name>/<version>``.  This registry is the single
source of truth for those identifiers and for what each one promises:

* every schema is declared **once** here, with its kind (JSONL stream
  vs. single JSON document), a one-line description, and -- when the
  contract is externally consumed -- the contract itself, on the entry:
  a declarative :class:`~repro.telemetry.contracts.Spec` (access log,
  run ledger and status document), or the strict loader in ``src/``
  that already reads the format (the trace artifact's ``fold_stream``,
  which is what ``iotls check --artifact`` runs, and the SLO gate's
  ``load_slo_policy``),
* :func:`check_contract` is the one checker: ``tools/validate_streams.py``,
  ``tools/serve_smoke.py`` and the tests all go through it,
* every producer imports its identifier from here (the module-level
  ``*_SCHEMA`` constants keep the historical names), and
* reprolint rule **RL022** (``stream-schema-contract``) rejects an
  ``iotls-*/N`` literal anywhere else in ``src``/``tools``.

The registration calls below keep ``name`` and ``version`` **literal**:
RL022 reads this file's AST, so the identifiers must be statically
evaluable without importing the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .contracts import Kind, Spec, When, check_spec

__all__ = [
    "ACCESS_LOG_SCHEMA",
    "API_SURFACE_SCHEMA",
    "DRIFT_REPORT_SCHEMA",
    "ENTRY_KINDS",
    "ENTRY_STATUSES",
    "EXPECTATIONS_SCHEMA",
    "LEDGER_SCHEMA",
    "MANIFEST_SCHEMA",
    "PROFILE_SCHEMA",
    "SLO_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "STATUS_SCHEMA",
    "STREAM_SCHEMA_PREFIX",
    "StreamSchema",
    "TRACE_STREAM_SCHEMA",
    "all_schemas",
    "check_contract",
    "get_schema",
    "is_registered",
    "schema_id",
]

#: Every published identifier starts with this prefix.
STREAM_SCHEMA_PREFIX = "iotls-"


@dataclass(frozen=True)
class StreamSchema:
    """One published contract: identity, shape, and the contract itself."""

    #: Short name (the ``<name>`` in ``iotls-<name>/<version>``).
    name: str
    version: int
    #: ``jsonl-stream`` (line-delimited, header-first) or ``document``
    #: (one JSON object).
    kind: str
    description: str
    #: What :func:`check_contract` enforces: a declarative :class:`Spec`,
    #: or the strict reader of the format, which raises ``ValueError`` on
    #: any violation (``None`` for internal documents read by their own
    #: loaders).
    contract: Spec | Callable[[Path], object] | None = field(default=None, compare=False)

    @property
    def id(self) -> str:
        """The full wire identifier, e.g. ``iotls-trace-stream/1``."""
        return f"{STREAM_SCHEMA_PREFIX}{self.name}/{self.version}"


def _fold_trace_stream(path: Path) -> None:
    """The artifact's reader is its contract (what ``iotls check --artifact`` runs)."""
    from ..analysis.export import fold_stream
    from ..testbed.capture import DiscardSink

    fold_stream(path, DiscardSink())


def _load_slo_policy(path: Path) -> None:
    from .slo import load_slo_policy

    load_slo_policy(path)


#: Run-ledger entry statuses (``status: error`` entries carry an ``error``).
ENTRY_STATUSES = ("ok", "error")

_RUN_ENTRY = Kind({"command": "str", "params": "object", "config_digest": "str"})
_STATUS_INTS = ("queue.depth", "queue.capacity", "queue.executors", "queue.inflight",
                "cache.hits", "cache.misses", "cache.coalesced")

#: The registry.  Keep ``name``/``version`` literal -- RL022 parses this file.
REGISTRY: tuple[StreamSchema, ...] = (
    StreamSchema(
        name="trace-stream",
        version=1,
        kind="jsonl-stream",
        description="chunked trace export: header, record/revocation-event "
        "lines, one trailing summary (iotls trace --stream-out, serve bodies)",
        contract=_fold_trace_stream,
    ),
    StreamSchema(
        name="run-ledger",
        version=1,
        kind="jsonl-stream",
        description="append-only cross-run observability store; one "
        "self-contained entry per line (.iotls/ledger.jsonl)",
        contract=Spec(
            fields={"status": ENTRY_STATUSES, "date": "any", "host": "any", "error.type": "any"},
            when=(When("status", lambda status: status == "error", {"error": "object"}),),
            kinds={
                "run": _RUN_ENTRY,
                "bench": Kind({"benchmark": "str", "seconds": "number"}),
                "check": _RUN_ENTRY,
            },
        ),
    ),
    StreamSchema(
        name="serve-access",
        version=1,
        kind="jsonl-stream",
        description="fleet-service access log: header, seq-monotonic request "
        "lifecycle events, at most one trailing summary",
        contract=Spec(
            kinds={
                "header": Kind(count=(1, 1)),
                "event": Kind({"seq": "int", "event": "any", "elapsed_seconds": "any"}, seq=True),
                "summary": Kind({"counts": "object"}, count=(0, 1), final=True),
            },
        ),
    ),
    StreamSchema(
        name="slo",
        version=1,
        kind="document",
        description="declarative benchmark SLO policy (tools/slo.json)",
        contract=_load_slo_policy,
    ),
    StreamSchema(
        name="serve-status",
        version=1,
        kind="document",
        description="fleet-service GET /status snapshot: queue, pool, cache, "
        "resident state, access counters",
        contract=Spec(
            fields={"queue": "object", "cache": "object", "resident": "object", "access": "object"}
            | dict.fromkeys(_STATUS_INTS, "int")
        ),
    ),
    StreamSchema(
        name="manifest",
        version=1,
        kind="document",
        description="blake2s-named canonical run manifest, byte-identical "
        "across worker counts",
    ),
    StreamSchema(
        name="telemetry",
        version=1,
        kind="document",
        description="metrics snapshot export (counters/gauges/histograms)",
    ),
    StreamSchema(
        name="profile",
        version=1,
        kind="document",
        description="span-based profile aggregation (--profile-out)",
    ),
    StreamSchema(
        name="paper-expectations",
        version=1,
        kind="document",
        description="calibrated paper cells the drift gate audits against "
        "(packaged expected/paper.json)",
    ),
    StreamSchema(
        name="drift-report",
        version=1,
        kind="document",
        description="iotls check outcome: per-cell drift verdicts",
    ),
    StreamSchema(
        name="api-surface",
        version=1,
        kind="document",
        description="public API surface baseline (tools/api_surface.json)",
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


def check_contract(path: str | Path, identifier: str) -> list[str]:
    """Every way the file at ``path`` breaks contract ``identifier``
    (empty = valid): the entry's spec, or its reader's ``ValueError``."""
    contract = get_schema(identifier).contract
    if contract is None:
        raise ValueError(f"{identifier} declares no contract to check")
    if isinstance(contract, Spec):
        return check_spec(contract, path, identifier)
    try:
        contract(Path(path))
    except (OSError, ValueError) as exc:
        return [str(exc)]
    return []


#: Run-ledger entry kinds: the line kinds the ledger's spec declares.
ENTRY_KINDS = tuple(_BY_NAME["run-ledger"].contract.kinds)


# ----------------------------------------------------------------------
# The historical constant names, now all derived from the registry.
# ----------------------------------------------------------------------
TRACE_STREAM_SCHEMA = schema_id("trace-stream")
LEDGER_SCHEMA = schema_id("run-ledger")
ACCESS_LOG_SCHEMA = schema_id("serve-access")
SLO_SCHEMA = schema_id("slo")
STATUS_SCHEMA = schema_id("serve-status")
MANIFEST_SCHEMA = schema_id("manifest")
SNAPSHOT_SCHEMA = schema_id("telemetry")
PROFILE_SCHEMA = schema_id("profile")
EXPECTATIONS_SCHEMA = schema_id("paper-expectations")
DRIFT_REPORT_SCHEMA = schema_id("drift-report")
API_SURFACE_SCHEMA = schema_id("api-surface")
