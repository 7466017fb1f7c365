"""Declarative SLOs and the trend report over the run ledger's bench entries.

Every ``tools/bench_*.py`` timing is one ``kind: "bench"`` entry in the
run ledger (:mod:`repro.telemetry.ledger`).  This module reads those
entries two ways:

* :func:`evaluate_slos` checks **declarative service-level objectives**
  from a committed policy file (``tools/slo.json``, schema
  :data:`SLO_SCHEMA`) against the newest matching entry per benchmark.
  Each SLO names a benchmark, a metric (any numeric field of the entry,
  e.g. ``records_per_second``, ``peak_mib``, ``worker_skew``), a
  comparison op, a threshold, and a ``level`` -- ``advisory`` (report
  only) or ``blocking`` (gate-failing).  A verdict is ``pass``,
  ``fail``, or ``skip`` when no entry carries the metric -- missing
  data must surface, never silently pass.
* :func:`trend_report` summarises each benchmark's trajectory (first /
  best / latest seconds plus tracked resource metrics).  The latest run
  is compared only with runs of the same ``config_digest`` (the
  workload shape in ``params``) on the same host fingerprint, and
  :func:`render_trend_report` marks a ratio above
  :data:`REGRESSION_RATIO` as an advisory regression.

``iotls runs trend --slo tools/slo.json`` is the one gate built on both:
it exits 1 on a blocking SLO failure and 2 on a bad policy.  Policy
loading is strict: a non-object document or SLO, an unknown op, level,
or schema tag raises :class:`SloPolicyError` so a typo'd policy fails
the gate loudly instead of evaluating nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "SLO_SCHEMA",
    "TREND_SCHEMA",
    "Slo",
    "SloPolicyError",
    "evaluate_slos",
    "load_slo_policy",
    "render_trend_report",
    "render_verdicts",
    "trend_report",
]

# Schema tags of the policy file and the trend report document,
# registered centrally in repro.telemetry.schemas.
from .schemas import SLO_SCHEMA, TREND_SCHEMA  # noqa: E402

_OPS = {
    "<=": lambda value, threshold: value <= threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    ">": lambda value, threshold: value > threshold,
}

_LEVELS = ("advisory", "blocking")


class SloPolicyError(ValueError):
    """The SLO policy file is malformed (bad schema/op/level/threshold)."""


@dataclass(frozen=True)
class Slo:
    """One objective: ``metric op threshold`` for a benchmark's latest run."""

    name: str
    benchmark: str
    metric: str
    op: str
    threshold: float
    level: str = "advisory"
    description: str = ""

    def check(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)


def load_slo_policy(path: str | Path) -> list[Slo]:
    """Parse and validate ``tools/slo.json``; raise :class:`SloPolicyError`
    on any malformed field."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SloPolicyError(f"cannot read SLO policy {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise SloPolicyError(f"{path}: policy must be a JSON object")
    if document.get("schema") != SLO_SCHEMA:
        raise SloPolicyError(
            f"{path}: schema must be {SLO_SCHEMA!r}, got {document.get('schema')!r}"
        )
    raw_slos = document.get("slos")
    if not isinstance(raw_slos, list) or not raw_slos:
        raise SloPolicyError(f"{path}: 'slos' must be a non-empty list")
    slos = []
    for index, raw in enumerate(raw_slos):
        where = f"{path}: slos[{index}]"
        if not isinstance(raw, dict):
            raise SloPolicyError(f"{where} must be an object")
        for key in ("name", "benchmark", "metric", "op", "threshold"):
            if key not in raw:
                raise SloPolicyError(f"{where} missing required key {key!r}")
        if raw["op"] not in _OPS:
            raise SloPolicyError(
                f"{where}: op must be one of {sorted(_OPS)}, got {raw['op']!r}"
            )
        level = raw.get("level", "advisory")
        if level not in _LEVELS:
            raise SloPolicyError(
                f"{where}: level must be one of {_LEVELS}, got {level!r}"
            )
        if not isinstance(raw["threshold"], (int, float)):
            raise SloPolicyError(f"{where}: threshold must be numeric")
        slos.append(
            Slo(
                name=str(raw["name"]),
                benchmark=str(raw["benchmark"]),
                metric=str(raw["metric"]),
                op=raw["op"],
                threshold=float(raw["threshold"]),
                level=level,
                description=str(raw.get("description", "")),
            )
        )
    return slos


def _latest_with_metric(
    entries: list[dict[str, Any]], benchmark: str, metric: str
) -> dict[str, Any] | None:
    for entry in reversed(entries):
        if entry.get("benchmark") == benchmark and isinstance(
            entry.get(metric), (int, float)
        ):
            return entry
    return None


def evaluate_slos(
    entries: list[dict[str, Any]], slos: list[Slo]
) -> list[dict[str, Any]]:
    """One verdict per SLO against the newest matching bench entry.

    Verdict ``status`` is ``pass``/``fail``/``skip`` (no matching entry
    carries the metric).  ``blocking`` is pre-computed so callers can
    gate on ``status == "fail" and blocking`` without re-reading levels.
    """
    verdicts = []
    for slo in slos:
        entry = _latest_with_metric(entries, slo.benchmark, slo.metric)
        verdict: dict[str, Any] = {
            "slo": slo.name,
            "benchmark": slo.benchmark,
            "metric": slo.metric,
            "op": slo.op,
            "threshold": slo.threshold,
            "level": slo.level,
            "blocking": slo.level == "blocking",
        }
        if entry is None:
            verdict.update(status="skip", value=None, detail="no trajectory data")
        else:
            value = entry[slo.metric]
            verdict.update(
                status="pass" if slo.check(value) else "fail",
                value=value,
                git_rev=entry.get("git_rev", "unknown"),
                date=entry.get("date", "unknown"),
            )
        verdicts.append(verdict)
    return verdicts


def render_verdicts(verdicts: list[dict[str, Any]]) -> str:
    """Human-readable SLO table (one line per verdict)."""
    lines = []
    for verdict in verdicts:
        marker = {"pass": "ok", "fail": "FAIL", "skip": "skip"}[verdict["status"]]
        value = verdict["value"]
        shown = f"{value:,g}" if isinstance(value, (int, float)) else "-"
        lines.append(
            f"[{marker}] {verdict['slo']} ({verdict['level']}): "
            f"{verdict['benchmark']}.{verdict['metric']} = {shown} "
            f"(want {verdict['op']} {verdict['threshold']:,g})"
        )
    return "\n".join(lines)


#: Resource metrics the trend report tracks per benchmark when present.
_TREND_METRICS = ("records_per_second", "peak_mib", "peak_rss_kib", "worker_skew")

#: ``latest_over_best`` above this ratio renders as an advisory regression
#: (wall-clock ratios are too noisy across runners to block on).
REGRESSION_RATIO = 1.25


def _comparable(run: dict[str, Any], latest: dict[str, Any]) -> bool:
    """Same workload shape (config digest) measured on the same host."""
    return (
        run.get("config_digest") == latest.get("config_digest")
        and run.get("host") == latest.get("host")
    )


def trend_report(entries: list[dict[str, Any]]) -> dict[str, Any]:
    """Per-benchmark trajectory summary (schema :data:`TREND_SCHEMA`).

    ``best_seconds`` is the fastest run comparable with the latest one
    (:func:`_comparable`), so a ``--scale 4000`` run is never measured
    against a ``--scale 400`` run's time, nor a laptop against a CI
    runner.
    """
    by_benchmark: dict[str, list[dict[str, Any]]] = {}
    for entry in entries:
        if "benchmark" in entry and isinstance(entry.get("seconds"), (int, float)):
            by_benchmark.setdefault(entry["benchmark"], []).append(entry)

    benchmarks = {}
    for benchmark, runs in sorted(by_benchmark.items()):
        latest, first = runs[-1], runs[0]
        best = min(
            (run for run in runs if _comparable(run, latest)),
            key=lambda run: run["seconds"],
        )
        summary: dict[str, Any] = {
            "runs": len(runs),
            "first_seconds": first["seconds"],
            "best_seconds": best["seconds"],
            "best_rev": best.get("git_rev", "unknown"),
            "latest_seconds": latest["seconds"],
            "latest_rev": latest.get("git_rev", "unknown"),
            "latest_date": latest.get("date", "unknown"),
            "latest_over_best": (
                round(latest["seconds"] / best["seconds"], 4)
                if best["seconds"] > 0
                else 0.0
            ),
        }
        metrics = {
            metric: latest[metric]
            for metric in _TREND_METRICS
            if isinstance(latest.get(metric), (int, float))
        }
        if metrics:
            summary["latest_metrics"] = metrics
        benchmarks[benchmark] = summary
    return {
        "schema": TREND_SCHEMA,
        "entries": len(entries),
        "benchmarks": benchmarks,
    }


def render_trend_report(report: dict[str, Any]) -> str:
    """Human-readable trend table for ``iotls runs trend``."""
    lines = [f"benchmark trajectory ({report['entries']} entries)"]
    for benchmark, summary in report["benchmarks"].items():
        marker = (
            "  REGRESSION (advisory)"
            if summary["latest_over_best"] > REGRESSION_RATIO
            else ""
        )
        lines.append(
            f"  {benchmark}: {summary['runs']} run(s), latest "
            f"{summary['latest_seconds']:.3f}s ({summary['latest_rev']}) = "
            f"{summary['latest_over_best']:.2f}x best "
            f"{summary['best_seconds']:.3f}s ({summary['best_rev']}){marker}"
        )
        for metric, value in summary.get("latest_metrics", {}).items():
            lines.append(f"      {metric}: {value:,g}")
    if not report["benchmarks"]:
        lines.append("  (no benchmark entries)")
    return "\n".join(lines)
