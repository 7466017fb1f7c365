"""Run manifests: every run explains itself, byte-for-byte.

A *run manifest* is the provenance record of one ``iotls`` run: what
command ran, with which parameters, against which package version and
device catalog, producing which artifacts (identified by blake2s
digests), counting what (the deterministic slice of the run's metrics).
The manifest is itself canonically encoded, so its own digest
(:func:`manifest_digest`) names the run's complete observable output.

The load-bearing guarantee is **worker invariance**: manifests are
byte-identical for the same seed whether a run shards onto a warm
worker pool of any size or runs in-process, extending
the parallel-determinism contract (:mod:`repro.parallel`) to the
observability layer.  Three exclusions make that possible, and each is
deliberate:

* **the worker count itself** -- the manifest certifies the run's
  *output*, and the output is worker-invariant; recording the schedule
  would break the byte-identity that makes manifests diffable
  (``determinism.workers_invariant`` records the guarantee instead),
* **wall-clock readings** -- histogram sums (handshake latencies)
  vary run to run, so :func:`deterministic_metrics` keeps
  only counter series and histogram *observation counts*,
* **artifact directories** -- artifacts are recorded by basename,
  byte count, and digest; where the bytes landed is not provenance.

``iotls trace/audit/report/pcap`` each build a manifest at the end of
the run, print its digest, and write the full document with
``--manifest PATH``.  See ``docs/observability.md`` ("Run manifests").
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from datetime import date
from pathlib import Path
from typing import Any

from .metrics import Histogram, MetricsRegistry

__all__ = [
    "MANIFEST_SCHEMA",
    "artifact_digest",
    "build_manifest",
    "canonical_json",
    "config_digest",
    "deterministic_metrics",
    "host_date",
    "host_fingerprint",
    "manifest_digest",
    "write_manifest",
]

from .schemas import MANIFEST_SCHEMA  # registered in repro.telemetry.schemas

#: blake2s digest length (hex chars = 2x this) used for every manifest
#: digest -- the same primitive the pcap exporter uses for addressing.
_DIGEST_SIZE = 16


def _blake2s(data: bytes) -> str:
    return hashlib.blake2s(data, digest_size=_DIGEST_SIZE).hexdigest()


def host_date() -> str:
    """Today's calendar date on the host, ISO-formatted.

    The telemetry package is the repo's one sanctioned clock boundary
    (``tests/test_source_invariants.py::test_no_wall_clock_read_outside_the_clock_boundary``):
    code that *deliberately* records wall-clock
    provenance -- the benchmark trajectory's per-entry date stamp --
    must read it through this helper rather than calling
    ``date.today()`` at the call site.  Nothing returned here may feed
    a run manifest; manifests stay wall-clock-free by design.
    """
    return date.today().isoformat()


def host_fingerprint() -> dict[str, Any]:
    """The host shape benchmark timings are only comparable within.

    Like :func:`host_date`, this is a deliberate host-provenance
    boundary: benchmark trajectory entries record it so the gate can
    *refuse* cross-host comparisons instead of silently comparing a
    laptop against a CI runner.  Nothing returned here may feed a run
    manifest; manifests stay host-independent by design.
    """
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.system().lower(),
        "machine": platform.machine(),
    }


def git_rev(repo_root: str | Path | None = None) -> str:
    """The current short git revision, or ``"unknown"`` outside a checkout.

    A tree with uncommitted changes to tracked files reads
    ``<rev>-dirty``, so a measurement of work in progress is not
    recorded under the revision it started from.
    """
    import subprocess

    cwd = repo_root or Path(__file__).resolve().parent

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True, timeout=10
        )

    try:
        completed = git("rev-parse", "--short", "HEAD")
        rev = completed.stdout.strip()
        if completed.returncode != 0 or not rev:
            return "unknown"
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return f"{rev}-dirty" if status.stdout.strip() else rev


def canonical_json(payload: Any) -> str:
    """The one true encoding digests are computed over: sorted keys,
    2-space indent, trailing newline -- the repo's ``write_json`` shape,
    so a manifest's bytes on disk are exactly what its digest covers."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def artifact_digest(path: str | Path) -> dict[str, Any]:
    """Identify one exported artifact: basename, size, blake2s.

    The directory is deliberately dropped -- *what* was produced is
    provenance, *where* it landed is not (and recording it would break
    manifest byte-identity across working directories).
    """
    path = Path(path)
    data = path.read_bytes()
    return {"name": path.name, "bytes": len(data), "blake2s": _blake2s(data)}


def config_digest(command: str, params: dict[str, Any], version: str) -> str:
    """Digest of the run's configuration: command, parameters, version."""
    payload = {"command": command, "params": params, "version": version}
    return _blake2s(canonical_json(payload).encode())


def deterministic_metrics(registry: MetricsRegistry) -> dict[str, Any]:
    """The worker-invariant slice of a metrics registry.

    Includes counter series (event counts -- the parallel layer
    guarantees merged totals equal a serial run's) and histogram
    *observation counts* per series.  Excludes histogram sums
    (latency-dependent).
    """
    counters: dict[str, Any] = {}
    histogram_counts: dict[str, Any] = {}
    for metric in registry.metrics():
        if metric.kind == "counter":
            counters[metric.name] = {
                "total": metric.total(),
                "series": [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(metric.series().items())
                ],
            }
        elif isinstance(metric, Histogram):
            histogram_counts[metric.name] = {
                "series": [
                    {"labels": dict(key), "count": state.count}
                    for key, state in sorted(metric.series().items())
                ],
            }
    return {"counters": counters, "histogram_counts": histogram_counts}


def build_manifest(
    command: str,
    *,
    params: dict[str, Any],
    artifacts: dict[str, str | Path] | None = None,
    registry: MetricsRegistry | None = None,
    catalog: list[str] | None = None,
) -> dict[str, Any]:
    """Assemble the run manifest document.

    ``artifacts`` maps a role (``records_json``, ``pcap``, ...) to the
    path of a file this run wrote; each is digested in place.
    ``catalog`` is the device-name roster the run operated over (its
    digest ties the manifest to the testbed composition).  ``registry``
    contributes the deterministic metrics slice when telemetry ran.
    """
    from .. import __version__

    if catalog is None:
        from ..devices.catalog import build_catalog

        catalog = [profile.name for profile in build_catalog()]
    manifest: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "package": {"name": "iotls-repro", "version": __version__},
        "config": {
            "params": dict(params),
            "digest": config_digest(command, dict(params), __version__),
        },
        "catalog": {
            "devices": len(catalog),
            "digest": _blake2s("\n".join(catalog).encode()),
        },
        "determinism": {
            "workers_invariant": True,
            "excluded": [
                "worker count",
                # Worded when histograms had buckets; kept so manifests
                # (and their digests) stay byte-identical.
                "wall-clock timings (histogram sums/buckets)",
                "artifact directories",
            ],
        },
        "metrics": (
            deterministic_metrics(registry)
            if registry is not None
            else {"counters": {}, "histogram_counts": {}}
        ),
        "artifacts": {
            role: artifact_digest(path) for role, path in (artifacts or {}).items()
        },
    }
    return manifest


def manifest_digest(manifest: dict[str, Any]) -> str:
    """The digest naming this run: blake2s over the canonical encoding."""
    return _blake2s(canonical_json(manifest).encode())


def write_manifest(manifest: dict[str, Any], path: str | Path) -> Path:
    """Write the manifest in canonical form (the digested bytes exactly)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(manifest))
    return path
