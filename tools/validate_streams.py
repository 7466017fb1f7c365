"""Validate the repo's machine-readable stream/report contracts.

The schema catalog lives in :mod:`repro.telemetry.schemas` -- the
central registry every producer imports its ``iotls-*/N`` identifier
from.  This tool holds the *validators*: each registry entry that
declares a ``validator`` names a function here, and the ``VALIDATORS``
dispatch table below is built from the registry, so a schema cannot be
published without its contract check (reprolint rule RL022 enforces the
same pairing statically).

Validated contracts (``--schema`` accepts any of them; the default is
auto-detection from the file's first parseable record):

* ``health-stream`` -- a ``--heartbeat-out`` run-health JSONL stream:
  header first, strictly seq-monotonic heartbeats, exactly one
  trailing summary,
* ``run-ledger`` -- a run-ledger JSONL store: every line a
  self-contained entry with schema tag, known kind/status, and the
  per-kind required fields,
* ``bench-trend`` -- a trend-report JSON document (``iotls runs trend
  --json``),
* ``trace-stream`` -- a streamed trace artifact: schema header first,
  one record/revocation-event object per line, exactly one trailing
  summary whose counts match the lines,
* ``serve-access`` -- the fleet service's access log: header first,
  strictly seq-monotonic events, at most one trailing summary,
* ``slo`` -- the declarative SLO policy file (tools/slo.json),
* ``serve-status`` -- a ``GET /status`` snapshot document,
* ``resources`` -- a ResourceSampler run summary.

CI runs this over artifacts its smoke steps produce so the contracts
external consumers depend on are pinned, not aspirational.

Exit codes: 0 = valid, 1 = contract violation, 2 = usage error.

Usage::

    python tools/validate_streams.py PATH [--schema SCHEMA]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

try:
    from repro.telemetry.schemas import all_schemas
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.telemetry.schemas import all_schemas
from repro.telemetry.ledger import ENTRY_KINDS, ENTRY_STATUSES
from repro.telemetry.slo import SloPolicyError, load_slo_policy

_IDS = {schema.name: schema.id for schema in all_schemas()}
HEALTH_SCHEMA = _IDS["health-stream"]
LEDGER_SCHEMA = _IDS["run-ledger"]
TREND_SCHEMA = _IDS["bench-trend"]
TRACE_SCHEMA = _IDS["trace-stream"]
ACCESS_SCHEMA = _IDS["serve-access"]
STATUS_SCHEMA = _IDS["serve-status"]
RESOURCES_SCHEMA = _IDS["resources"]

HEARTBEAT_REQUIRED = ("seq", "label", "done", "elapsed_seconds", "rate", "ewma_rate")
SUMMARY_REQUIRED = ("label", "done", "seconds", "rate", "heartbeats")

LEDGER_REQUIRED = ("schema", "kind", "status", "date", "host")


def validate_run_health(path: Path) -> list[str]:
    """Contract violations in a run-health stream (empty = valid)."""
    errors: list[str] = []
    try:
        lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line]
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    if not lines:
        return ["stream is empty"]

    records = []
    for number, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {number}: not valid JSON ({exc})")
            continue
        if not isinstance(record, dict) or "kind" not in record:
            errors.append(f"line {number}: record has no 'kind' field")
            continue
        records.append((number, record))

    if not records:
        return errors or ["no parseable records"]

    first_number, first = records[0]
    if first.get("kind") != "header":
        errors.append(f"line {first_number}: stream must start with a header record")
    elif first.get("schema") != HEALTH_SCHEMA:
        errors.append(
            f"line {first_number}: schema {first.get('schema')!r}, "
            f"expected {HEALTH_SCHEMA!r}"
        )

    heartbeats = [(n, r) for n, r in records if r.get("kind") == "heartbeat"]
    summaries = [(n, r) for n, r in records if r.get("kind") == "summary"]

    if not heartbeats:
        errors.append("no heartbeat records (expected at least one)")
    last_seq = 0
    for number, record in heartbeats:
        for key in HEARTBEAT_REQUIRED:
            if key not in record:
                errors.append(f"line {number}: heartbeat missing {key!r}")
        seq = record.get("seq")
        if isinstance(seq, int):
            if seq <= last_seq:
                errors.append(f"line {number}: seq {seq} not strictly after {last_seq}")
            last_seq = seq

    if len(summaries) != 1:
        errors.append(f"{len(summaries)} summary records (expected exactly 1)")
    else:
        number, summary = summaries[0]
        if (number, summary) != (records[-1][0], records[-1][1]):
            errors.append(f"line {number}: summary is not the final record")
        for key in SUMMARY_REQUIRED:
            if key not in summary:
                errors.append(f"line {number}: summary missing {key!r}")

    return errors


def _validate_ledger_entry(number: int, entry: dict[str, Any]) -> list[str]:
    """Per-entry ledger contract (shared by run/bench/check kinds)."""
    errors = []
    for key in LEDGER_REQUIRED:
        if key not in entry:
            errors.append(f"line {number}: entry missing {key!r}")
    if entry.get("schema") != LEDGER_SCHEMA:
        errors.append(
            f"line {number}: schema {entry.get('schema')!r}, expected {LEDGER_SCHEMA!r}"
        )
    kind = entry.get("kind")
    if kind not in ENTRY_KINDS:
        errors.append(f"line {number}: kind {kind!r} not one of {ENTRY_KINDS}")
    status = entry.get("status")
    if status not in ENTRY_STATUSES:
        errors.append(f"line {number}: status {status!r} not one of {ENTRY_STATUSES}")
    if kind in ("run", "check"):
        if not isinstance(entry.get("command"), str):
            errors.append(f"line {number}: {kind} entry needs a string 'command'")
        if not isinstance(entry.get("params"), dict):
            errors.append(f"line {number}: {kind} entry needs a 'params' object")
        if not isinstance(entry.get("config_digest"), str):
            errors.append(f"line {number}: {kind} entry needs a 'config_digest'")
    if kind == "bench":
        if not isinstance(entry.get("benchmark"), str):
            errors.append(f"line {number}: bench entry needs a 'benchmark' name")
        if not isinstance(entry.get("seconds"), (int, float)):
            errors.append(f"line {number}: bench entry needs numeric 'seconds'")
    if status == "error" and not isinstance(entry.get("error"), dict):
        errors.append(f"line {number}: error entry needs an 'error' object")
    error = entry.get("error")
    if isinstance(error, dict) and "type" not in error:
        errors.append(f"line {number}: error object missing 'type'")
    return errors


def validate_run_ledger(path: Path) -> list[str]:
    """Contract violations in a run-ledger store (empty = valid).

    Stricter than the tolerant runtime loader: a validated ledger may
    not contain torn or foreign lines at all.
    """
    try:
        lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line]
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    if not lines:
        return ["ledger is empty"]
    errors: list[str] = []
    for number, line in enumerate(lines, start=1):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {number}: not valid JSON ({exc})")
            continue
        if not isinstance(entry, dict):
            errors.append(f"line {number}: entry is not an object")
            continue
        errors.extend(_validate_ledger_entry(number, entry))
    return errors


def validate_bench_trend(path: Path) -> list[str]:
    """Contract violations in a trend-report document (empty = valid)."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot parse {path}: {exc}"]
    if not isinstance(document, dict):
        return ["document is not an object"]
    errors = []
    if document.get("schema") != TREND_SCHEMA:
        errors.append(
            f"schema {document.get('schema')!r}, expected {TREND_SCHEMA!r}"
        )
    if not isinstance(document.get("entries"), int):
        errors.append("'entries' must be an integer")
    benchmarks = document.get("benchmarks")
    if not isinstance(benchmarks, dict):
        errors.append("'benchmarks' must be an object")
    else:
        for name, summary in sorted(benchmarks.items()):
            for key in ("runs", "best_seconds", "latest_seconds"):
                if key not in summary:
                    errors.append(f"benchmarks[{name!r}] missing {key!r}")
    hosts = document.get("hosts")
    if hosts is not None and not isinstance(hosts, dict):
        errors.append("'hosts' must be an object when present")
    return errors


def validate_trace_stream(path: Path) -> list[str]:
    """Contract violations in a streamed trace artifact (empty = valid)."""
    try:
        lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line]
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    if not lines:
        return ["stream is empty"]
    errors: list[str] = []
    records = revocations = 0
    summary: dict[str, Any] | None = None
    summary_line = None
    for number, line in enumerate(lines, start=1):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {number}: not valid JSON ({exc})")
            continue
        if not isinstance(entry, dict):
            errors.append(f"line {number}: entry is not an object")
            continue
        if number == 1:
            if entry.get("schema") != TRACE_SCHEMA:
                errors.append(
                    f"line 1: schema {entry.get('schema')!r}, "
                    f"expected {TRACE_SCHEMA!r}"
                )
            if not isinstance(entry.get("metadata"), dict):
                errors.append("line 1: header needs a 'metadata' object")
            continue
        if "record" in entry:
            records += 1
        elif "revocation_event" in entry:
            revocations += 1
        elif "summary" in entry:
            if summary is not None:
                errors.append(f"line {number}: second summary line")
            summary = entry["summary"]
            summary_line = number
        else:
            errors.append(
                f"line {number}: expected a record/revocation_event/summary line"
            )
    if summary is None:
        errors.append("no summary line (stream truncated?)")
    else:
        if summary_line != len(lines):
            errors.append(f"line {summary_line}: summary is not the final line")
        declared = summary.get("flow_records")
        if declared != records:
            errors.append(
                f"summary declares {declared} flow_records, stream holds {records}"
            )
        declared = summary.get("revocation_events")
        if declared != revocations:
            errors.append(
                f"summary declares {declared} revocation_events, "
                f"stream holds {revocations}"
            )
    return errors


def validate_access_log(path: Path) -> list[str]:
    """Contract violations in a serve access log (empty = valid)."""
    try:
        lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line]
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    if not lines:
        return ["access log is empty"]
    errors: list[str] = []
    last_seq = 0
    summaries = 0
    for number, line in enumerate(lines, start=1):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {number}: not valid JSON ({exc})")
            continue
        if not isinstance(entry, dict):
            errors.append(f"line {number}: entry is not an object")
            continue
        kind = entry.get("kind")
        if number == 1:
            if kind != "header":
                errors.append("line 1: access log must start with a header")
            elif entry.get("schema") != ACCESS_SCHEMA:
                errors.append(
                    f"line 1: schema {entry.get('schema')!r}, "
                    f"expected {ACCESS_SCHEMA!r}"
                )
            continue
        if kind == "event":
            for key in ("seq", "event", "elapsed_seconds"):
                if key not in entry:
                    errors.append(f"line {number}: event missing {key!r}")
            seq = entry.get("seq")
            if isinstance(seq, int):
                if seq <= last_seq:
                    errors.append(
                        f"line {number}: seq {seq} not strictly after {last_seq}"
                    )
                last_seq = seq
        elif kind == "summary":
            summaries += 1
            if number != len(lines):
                errors.append(f"line {number}: summary is not the final line")
            if not isinstance(entry.get("counts"), dict):
                errors.append(f"line {number}: summary needs a 'counts' object")
        else:
            errors.append(f"line {number}: unknown kind {kind!r}")
    if summaries > 1:
        errors.append(f"{summaries} summary lines (expected at most 1)")
    return errors


def _load_document(path: Path) -> tuple[dict[str, Any] | None, list[str]]:
    """Parse one JSON document, returning (document, errors)."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return None, [f"cannot parse {path}: {exc}"]
    if not isinstance(document, dict):
        return None, ["document is not an object"]
    return document, []


def validate_slo_policy(path: Path) -> list[str]:
    """Contract violations in an SLO policy document (empty = valid).

    The contract is whatever the gate's own loader accepts.
    """
    try:
        load_slo_policy(path)
    except SloPolicyError as exc:
        return [str(exc)]
    return []


def validate_serve_status(path: Path) -> list[str]:
    """Contract violations in a GET /status snapshot (empty = valid)."""
    document, errors = _load_document(path)
    if document is None:
        return errors
    if document.get("schema") != STATUS_SCHEMA:
        errors.append(f"schema {document.get('schema')!r}, expected {STATUS_SCHEMA!r}")
    queue = document.get("queue")
    if not isinstance(queue, dict):
        errors.append("'queue' must be an object")
    else:
        for key in ("depth", "capacity", "executors", "inflight"):
            if not isinstance(queue.get(key), int):
                errors.append(f"queue.{key} must be an integer")
    cache = document.get("cache")
    if not isinstance(cache, dict):
        errors.append("'cache' must be an object")
    else:
        for key in ("hits", "misses", "coalesced"):
            if not isinstance(cache.get(key), int):
                errors.append(f"cache.{key} must be an integer")
    if not isinstance(document.get("resident"), dict):
        errors.append("'resident' must be an object")
    if not isinstance(document.get("access"), dict):
        errors.append("'access' must be an object")
    return errors


def validate_resource_summary(path: Path) -> list[str]:
    """Contract violations in a ResourceSampler summary (empty = valid)."""
    document, errors = _load_document(path)
    if document is None:
        return errors
    if document.get("schema") != RESOURCES_SCHEMA:
        errors.append(
            f"schema {document.get('schema')!r}, expected {RESOURCES_SCHEMA!r}"
        )
    samples = document.get("samples")
    if not isinstance(samples, int):
        errors.append("'samples' must be an integer")
    elif samples > 0:
        for key in ("seconds", "peak_rss_kib", "peak_traced_bytes"):
            if not isinstance(document.get(key), (int, float)):
                errors.append(f"{key!r} must be numeric when samples > 0")
        stages = document.get("stages")
        if stages is not None and not isinstance(stages, dict):
            errors.append("'stages' must be an object when present")
    return errors


def _build_validators() -> dict[str, Any]:
    """Dispatch table, driven by the registry so the pairing can't drift."""
    table: dict[str, Any] = {}
    for schema in all_schemas():
        if schema.validator is None:
            continue
        function = globals().get(schema.validator)
        if function is None:
            raise RuntimeError(
                f"registry declares validator {schema.validator!r} for "
                f"{schema.id} but tools/validate_streams.py does not define it"
            )
        table[schema.id] = function
    return table


VALIDATORS = _build_validators()


def detect_schema(path: Path) -> str | None:
    """Guess which contract a file claims, from its first parseable record."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return None
    stripped = text.lstrip()
    if not stripped:
        return None
    first_line = stripped.splitlines()[0]
    try:
        record = json.loads(first_line)
    except json.JSONDecodeError:
        # Not line-delimited: try the whole file as one JSON document.
        try:
            record = json.loads(text)
        except json.JSONDecodeError:
            return None
    if not isinstance(record, dict):
        return None
    schema = record.get("schema")
    return schema if schema in VALIDATORS else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="stream/report file to validate")
    parser.add_argument(
        "--schema",
        choices=sorted(VALIDATORS),
        help="contract to validate against (default: auto-detect from content)",
    )
    args = parser.parse_args()
    path = Path(args.path)
    if not path.exists():
        print(f"error: no such file: {path}", file=sys.stderr)
        return 2
    schema = args.schema or detect_schema(path)
    if schema is None:
        print(
            f"error: cannot detect a known schema in {path}; pass --schema",
            file=sys.stderr,
        )
        return 2
    errors = VALIDATORS[schema](path)
    if errors:
        for error in errors:
            print(f"INVALID: {error}", file=sys.stderr)
        return 1
    print(f"{path}: valid {schema}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
