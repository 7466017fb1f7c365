"""The run ledger: a queryable, append-only cross-run observability store.

Every ``repro.api`` run -- success *and* typed failure -- and every
bench-tool timing appends one ``iotls-run-ledger/1`` JSON line to the
ledger (default ``.iotls/ledger.jsonl``), so the repository accumulates
a durable, content-addressed index of *what was computed, with what
config, on what host, with what outcome*:

* the **manifest digest** (the run's complete observable output, PR 3)
  and the **config digest** (command + params + version) -- together
  the lookup halves of the planned ``iotls serve`` result cache:
  ``config digest -> most recent manifest digest + artifact paths``,
* :func:`~repro.telemetry.provenance.host_fingerprint` and the wall /
  per-phase durations,
* drift verdicts (``iotls check``) and SLO verdicts when those ran,
* :func:`~repro.telemetry.provenance.artifact_digest`-identified output
  paths (unlike manifests, the ledger *does* record where bytes landed
  -- that is exactly what ``runs gc`` and ``runs lookup`` need).

The ledger is deliberately **not** provenance: every entry carries
wall-clock and host data, so nothing here may ever feed a run manifest
-- manifests stay byte-identical with or without a worker pool and
with the ledger on or off.  The module lives inside the telemetry
clock boundary and is itself the **ledger write boundary**
(``tests/test_source_invariants.py::test_only_the_ledger_module_writes_the_ledger``):
ledger files are written only through :func:`append_entry` /
:func:`rewrite_ledger`, which guarantee whole-line atomicity --
one ``write()`` syscall per entry on an ``O_APPEND`` handle, so
concurrent serve executors and bench processes can never interleave
partial lines.

``iotls runs`` is the query surface: ``list`` / ``show`` / ``diff`` /
``trend`` / ``lookup`` / ``gc`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any

from .provenance import (
    artifact_digest,
    canonical_json,
    config_digest,
    host_date,
    host_fingerprint,
    _blake2s,
)
from .slo import evaluate_slos, trend_report

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "LEDGER_SCHEMA",
    "append_entry",
    "artifacts_live",
    "build_entry",
    "diff_entries",
    "filter_entries",
    "find_entry",
    "gc_entries",
    "host_key",
    "ledger_trend",
    "load_ledger",
    "lookup_config",
    "render_diff",
    "render_entries",
    "render_entry",
    "rewrite_ledger",
]

#: Schema tag every ledger line declares, and the entry kinds and
#: statuses its contract admits (see repro.telemetry.schemas).
from .schemas import ENTRY_KINDS, ENTRY_STATUSES, LEDGER_SCHEMA  # noqa: E402

#: Repo/CWD-relative default ledger location (``--ledger`` overrides).
DEFAULT_LEDGER_PATH = ".iotls/ledger.jsonl"

#: Same-process appends serialise on this lock; cross-process atomicity
#: comes from the single O_APPEND write per line.
_APPEND_LOCK = threading.Lock()


def _resolve(path: str | Path | None) -> Path:
    return Path(path) if path is not None else Path(DEFAULT_LEDGER_PATH)


def host_key(host: dict[str, Any] | None) -> str:
    """A short stable digest naming one host fingerprint (trend grouping)."""
    return _blake2s(canonical_json(host or {}).encode())[:12]


def _metric_totals(manifest: dict[str, Any] | None) -> dict[str, Any]:
    """The deterministic counter totals of a manifest (diffable slice)."""
    if not manifest:
        return {}
    counters = manifest.get("metrics", {}).get("counters", {})
    return {name: data.get("total") for name, data in sorted(counters.items())}


# ----------------------------------------------------------------------
# Entry construction
# ----------------------------------------------------------------------
def build_entry(
    command: str,
    *,
    params: dict[str, Any] | None = None,
    status: str = "ok",
    kind: str = "run",
    workers: int | None = None,
    seconds: float | None = None,
    phases: dict[str, float] | None = None,
    pool: dict[str, Any] | None = None,
    manifest: dict[str, Any] | None = None,
    manifest_digest: str | None = None,
    artifacts: dict[str, str | Path] | None = None,
    drift: dict[str, Any] | None = None,
    slo_verdicts: list[dict[str, Any]] | None = None,
    error: BaseException | dict[str, Any] | None = None,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble one ``iotls-run-ledger/1`` entry (not yet written).

    The config digest is taken from the manifest when one was built and
    recomputed from ``(command, params, version)`` otherwise, so error
    entries raised before any manifest existed still index by config.
    Artifacts are recorded with their resolved paths -- the ledger,
    unlike the manifest, cares where bytes landed -- and with the
    manifest's digest of each, so no artifact is read twice; one the
    manifest does not name is digested in place.
    """
    from .. import __version__

    if kind not in ENTRY_KINDS:
        raise ValueError(f"kind must be one of {ENTRY_KINDS}, got {kind!r}")
    if status not in ENTRY_STATUSES:
        raise ValueError(f"status must be one of {ENTRY_STATUSES}, got {status!r}")
    params = dict(params or {})
    entry: dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "kind": kind,
        "command": command,
        "status": status,
        "date": host_date(),
        "host": host_fingerprint(),
        "params": params,
        "config_digest": (
            manifest.get("config", {}).get("digest")
            if manifest
            else config_digest(command, params, __version__)
        ),
        "manifest_digest": manifest_digest,
    }
    if workers is not None:
        entry["workers"] = workers
    if seconds is not None:
        entry["seconds"] = round(seconds, 4)
    if phases:
        entry["phases"] = {name: round(value, 4) for name, value in sorted(phases.items())}
    if pool:
        entry["pool"] = dict(pool)
    metrics = _metric_totals(manifest)
    if metrics:
        entry["metrics_totals"] = metrics
    if artifacts:
        digested = (manifest or {}).get("artifacts", {})
        entry["artifacts"] = {
            role: {
                **(digested.get(role) or artifact_digest(path)),
                "path": str(Path(path).resolve()),
            }
            for role, path in sorted(artifacts.items())
        }
    if drift:
        entry["drift"] = dict(drift)
    if slo_verdicts:
        entry["slo_verdicts"] = [dict(verdict) for verdict in slo_verdicts]
    if error is not None:
        if isinstance(error, BaseException):
            entry["error"] = {"type": type(error).__name__, "message": str(error)}
        else:
            entry["error"] = dict(error)
    if extra:
        entry.update(extra)
    return entry


# ----------------------------------------------------------------------
# The write boundary: every ledger byte goes through here.
# ----------------------------------------------------------------------
def append_entry(entry: dict[str, Any], path: str | Path | None = None) -> Path:
    """Append one entry as a single atomic line and return the path.

    The line is serialised first and written with **one** ``write()``
    call on an ``O_APPEND`` handle: POSIX append semantics then
    guarantee the line lands contiguously even when concurrent
    processes (serve executors, parallel bench runs) append at the
    same moment -- no torn or interleaved lines, ever.  If a crashed
    writer left the file without a trailing newline, the new entry
    starts on a fresh line so the torn fragment stays quarantined to
    its own (skipped-on-load) line instead of corrupting this one.
    """
    path = _resolve(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(entry, sort_keys=True, separators=(",", ":"), default=str) + "\n"
    with _APPEND_LOCK:
        fd = os.open(str(path), os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                line = "\n" + line
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
    return path


def rewrite_ledger(entries: list[dict[str, Any]], path: str | Path | None = None) -> Path:
    """Replace the ledger's contents atomically (``runs gc``).

    Writes the surviving entries to a sibling temp file and renames it
    over the ledger, so a reader never observes a half-written store.
    """
    path = _resolve(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = "".join(
        json.dumps(entry, sort_keys=True, separators=(",", ":"), default=str) + "\n"
        for entry in entries
    )
    temp = path.with_suffix(path.suffix + ".tmp")
    with _APPEND_LOCK:
        temp.write_text(lines, encoding="utf-8")
        os.replace(temp, path)
    return path


def load_ledger(path: str | Path | None = None) -> list[dict[str, Any]]:
    """Read every parseable entry; a missing file is an empty ledger.

    A torn or corrupt line (a crash mid-append on a non-POSIX
    filesystem, a truncated copy) must never poison the whole store:
    lines that are not UTF-8, not JSON, or not an object are skipped.
    Lines are decoded one at a time, so a stray byte costs its own line
    and never the file.
    """
    path = _resolve(path)
    if not path.exists():
        return []
    entries: list[dict[str, Any]] = []
    for raw in path.read_bytes().split(b"\n"):
        try:
            record = json.loads(raw.decode("utf-8"))
        except ValueError:
            continue  # torn, non-UTF-8 or blank line: tolerate, never propagate
        if isinstance(record, dict):
            entries.append(record)
    return entries


# ----------------------------------------------------------------------
# Queries (the `iotls runs` surface)
# ----------------------------------------------------------------------
def filter_entries(
    entries: list[dict[str, Any]],
    *,
    command: str | None = None,
    device: str | None = None,
    host: str | None = None,
    status: str | None = None,
    kind: str | None = None,
) -> list[dict[str, Any]]:
    """The ``runs list`` filter: every criterion given must match.

    ``device`` matches the run's ``params.device``; ``host`` matches a
    prefix of the entry's :func:`host_key`.
    """
    selected = []
    for entry in entries:
        if command is not None and entry.get("command") != command:
            continue
        if status is not None and entry.get("status") != status:
            continue
        if kind is not None and entry.get("kind") != kind:
            continue
        if device is not None and entry.get("params", {}).get("device") != device:
            continue
        if host is not None and not host_key(entry.get("host")).startswith(host):
            continue
        selected.append(entry)
    return selected


def find_entry(entries: list[dict[str, Any]], digest: str) -> dict[str, Any] | None:
    """The newest entry whose manifest digest starts with ``digest``."""
    for entry in reversed(entries):
        manifest = entry.get("manifest_digest")
        if isinstance(manifest, str) and manifest.startswith(digest):
            return entry
    return None


def artifacts_live(entry: dict[str, Any]) -> bool:
    """Whether every artifact path the entry recorded still holds a file.

    Entries with no artifacts are vacuously live: they index
    computations whose result is the envelope itself.
    """
    artifacts = entry.get("artifacts") or {}
    return all(
        Path(info.get("path", "")).is_file() for info in artifacts.values()
    )


def lookup_config(
    entries: list[dict[str, Any]], digest: str
) -> dict[str, Any] | None:
    """Config digest -> the most recent successful matching entry.

    This is the content-addressed cache primitive ``iotls serve``
    consumes: a hit names the manifest digest (the complete output) and
    the artifact paths that still hold those bytes.  Entries whose
    recorded artifacts have since vanished (pre-gc deletions,
    hand-pruned files) are skipped -- a cache hit must be servable from
    disk, so the scan continues to the next older live match.
    """
    for entry in reversed(entries):
        config = entry.get("config_digest")
        if (
            isinstance(config, str)
            and config.startswith(digest)
            and entry.get("status") == "ok"
            and entry.get("manifest_digest")
            and artifacts_live(entry)
        ):
            return entry
    return None


def diff_entries(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Compare two entries: manifest identity plus deterministic deltas.

    ``drift`` is True when both runs produced manifests and the digests
    differ -- the same config producing different output is exactly the
    regression ``runs diff`` exists to catch.  The metric and param
    deltas localise *what* moved.
    """
    digest_a, digest_b = a.get("manifest_digest"), b.get("manifest_digest")
    manifest_match = digest_a is not None and digest_a == digest_b
    metrics_a, metrics_b = a.get("metrics_totals", {}), b.get("metrics_totals", {})
    metrics_delta = {
        name: {"a": metrics_a.get(name), "b": metrics_b.get(name)}
        for name in sorted(set(metrics_a) | set(metrics_b))
        if metrics_a.get(name) != metrics_b.get(name)
    }
    params_a, params_b = a.get("params", {}), b.get("params", {})
    params_delta = {
        key: {"a": params_a.get(key), "b": params_b.get(key)}
        for key in sorted(set(params_a) | set(params_b))
        if params_a.get(key) != params_b.get(key)
    }
    return {
        "a": {"manifest_digest": digest_a, "config_digest": a.get("config_digest")},
        "b": {"manifest_digest": digest_b, "config_digest": b.get("config_digest")},
        "manifest_match": manifest_match,
        "config_match": a.get("config_digest") == b.get("config_digest"),
        "metrics_delta": metrics_delta,
        "params_delta": params_delta,
        "drift": not manifest_match,
        "seconds": {"a": a.get("seconds"), "b": b.get("seconds")},
    }


def gc_entries(
    entries: list[dict[str, Any]],
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """Split entries into (kept, pruned): pruned entries recorded at
    least one artifact whose path no longer holds a file.  Entries with
    no artifacts are always kept -- they index computations, and a
    computation with no surviving bytes is still history."""
    kept: list[dict[str, Any]] = []
    pruned: list[dict[str, Any]] = []
    for entry in entries:
        if (entry.get("artifacts") or {}) and not artifacts_live(entry):
            pruned.append(entry)
        else:
            kept.append(entry)
    return kept, pruned


def ledger_trend(
    entries: list[dict[str, Any]],
    *,
    slos: list[Any] | None = None,
    series_limit: int = 20,
) -> dict[str, Any]:
    """Cross-run trajectories per host fingerprint (``runs trend``).

    Reuses :func:`repro.telemetry.slo.trend_report` and, per host
    fingerprint, adds the records/s and peak-RSS series the fleet-scale
    directions care about.  ``slos`` additionally evaluates the policy
    against the bench entries, folding the verdicts into the report.
    """
    bench = [
        entry
        for entry in entries
        if "benchmark" in entry and isinstance(entry.get("seconds"), (int, float))
    ]
    report = trend_report(bench)
    hosts: dict[str, dict[str, Any]] = {}
    for entry in bench:
        hosts.setdefault(host_key(entry.get("host")), {"entries": []})[
            "entries"
        ].append(entry)
    report["hosts"] = {}
    for key, group in sorted(hosts.items()):
        group_entries = group["entries"]
        host_report = trend_report(group_entries)
        series: dict[str, list[dict[str, Any]]] = {}
        for entry in group_entries[-series_limit:]:
            point = {
                "date": entry.get("date"),
                "git_rev": entry.get("git_rev", "unknown"),
                "seconds": entry.get("seconds"),
            }
            for metric in ("records_per_second", "peak_rss_kib"):
                if isinstance(entry.get(metric), (int, float)):
                    point[metric] = entry[metric]
            series.setdefault(entry["benchmark"], []).append(point)
        report["hosts"][key] = {
            "host": group_entries[-1].get("host"),
            "entries": len(group_entries),
            "benchmarks": host_report["benchmarks"],
            "series": dict(sorted(series.items())),
        }
    if slos:
        report["slo_verdicts"] = evaluate_slos(bench, slos)
    return report


# ----------------------------------------------------------------------
# Rendering (the `iotls runs` human surface)
# ----------------------------------------------------------------------
def entry_title(entry: dict[str, Any]) -> str:
    """The name an entry is shown under: benchmark or command."""
    if entry.get("kind") == "bench":
        return str(entry.get("benchmark", entry.get("command", "?")))
    return str(entry.get("command", "?"))


def render_entry(entry: dict[str, Any]) -> str:
    """The multi-line ``runs show`` view of one entry."""
    lines = [
        f"{entry_title(entry)} [{entry.get('kind', 'run')}] -- "
        f"{entry.get('status', '?')} on {entry.get('date', '?')}",
        f"  config digest:   {entry.get('config_digest')}",
        f"  manifest digest: {entry.get('manifest_digest')}",
        f"  host:            {host_key(entry.get('host'))} {entry.get('host')}",
    ]
    if entry.get("workers") is not None:
        lines.append(f"  workers:         {entry['workers']}")
    if entry.get("seconds") is not None:
        lines.append(f"  wall seconds:    {entry['seconds']}")
    for name, value in sorted((entry.get("phases") or {}).items()):
        lines.append(f"    phase {name}: {value}s")
    if entry.get("params"):
        lines.append(f"  params:          {json.dumps(entry['params'], sort_keys=True)}")
    for role, info in sorted((entry.get("artifacts") or {}).items()):
        lines.append(
            f"  artifact {role}: {info.get('path')} "
            f"({info.get('bytes')} B, blake2s {info.get('blake2s')})"
        )
    if entry.get("drift") is not None:
        lines.append(f"  drift:           {json.dumps(entry['drift'], sort_keys=True)}")
    for verdict in entry.get("slo_verdicts") or []:
        lines.append(
            f"  slo {verdict.get('slo')}: {verdict.get('status')}"
            f" ({verdict.get('metric')}={verdict.get('value')})"
        )
    error = entry.get("error")
    if error:
        lines.append(f"  error:           {error.get('type')}: {error.get('message')}")
    return "\n".join(lines)


def render_entries(entries: list[dict[str, Any]]) -> str:
    """The one-line-per-entry ``runs list`` table (newest last)."""
    if not entries:
        return "(ledger is empty)"
    lines = []
    for entry in entries:
        digest = entry.get("manifest_digest") or "-"
        config = entry.get("config_digest") or "-"
        seconds = entry.get("seconds")
        shown = f"{seconds:>8.2f}s" if isinstance(seconds, (int, float)) else "       -"
        lines.append(
            f"{entry.get('date', '?'):<10}  {entry.get('status', '?'):<5}  "
            f"{entry_title(entry):<28}  {shown}  "
            f"cfg {str(config)[:12]:<12}  man {str(digest)[:12]}"
        )
    return "\n".join(lines)


def render_diff(diff: dict[str, Any]) -> str:
    """The human ``runs diff`` report."""
    lines = [
        f"a: manifest {diff['a']['manifest_digest']} config {diff['a']['config_digest']}",
        f"b: manifest {diff['b']['manifest_digest']} config {diff['b']['config_digest']}",
        f"config match:   {'yes' if diff['config_match'] else 'NO'}",
        f"manifest match: {'yes' if diff['manifest_match'] else 'NO (drift)'}",
    ]
    for key, delta in sorted(diff["params_delta"].items()):
        lines.append(f"  param {key}: {delta['a']!r} -> {delta['b']!r}")
    for name, delta in sorted(diff["metrics_delta"].items()):
        lines.append(f"  metric {name}: {delta['a']} -> {delta['b']}")
    if diff["manifest_match"]:
        lines.append("identical deterministic output: zero manifest delta")
    return "\n".join(lines)
