"""Exporters: JSON snapshots and a summary table.

Two render targets for one :class:`~repro.telemetry.metrics.MetricsRegistry`:

* :func:`metrics_snapshot` / :func:`write_snapshot` -- a JSON document
  in the same family as the repo's ``BENCH_*.json`` trajectory files
  (plain nested dicts, sorted keys, a ``schema`` tag),
* :func:`summary_table` -- an aligned human-readable table for CLI
  output.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .metrics import Counter, Gauge, Histogram, LabelKey, MetricsRegistry

__all__ = [
    "SNAPSHOT_SCHEMA",
    "metrics_snapshot",
    "summary_table",
    "write_snapshot",
]

from .schemas import SNAPSHOT_SCHEMA  # registered in repro.telemetry.schemas


# ----------------------------------------------------------------------
# JSON snapshot
# ----------------------------------------------------------------------
def _labels_dict(key: LabelKey) -> dict[str, str]:
    return {name: value for name, value in key}


def metrics_snapshot(
    registry: MetricsRegistry, *, extra: dict[str, Any] | None = None
) -> dict[str, Any]:
    """The registry as one JSON-serialisable document."""
    counters: dict[str, Any] = {}
    gauges: dict[str, Any] = {}
    histograms: dict[str, Any] = {}
    for metric in registry.metrics():
        if isinstance(metric, Counter):
            counters[metric.name] = {
                "help": metric.help,
                "total": metric.total(),
                "series": [
                    {"labels": _labels_dict(key), "value": value}
                    for key, value in sorted(metric.series().items())
                ],
            }
        elif isinstance(metric, Gauge):
            gauges[metric.name] = {
                "help": metric.help,
                "series": [
                    {"labels": _labels_dict(key), "value": value}
                    for key, value in sorted(metric.series().items())
                ],
            }
        elif isinstance(metric, Histogram):
            histograms[metric.name] = {
                "help": metric.help,
                "buckets": list(metric.buckets),
                "series": [
                    {
                        "labels": _labels_dict(key),
                        "count": state.count,
                        "sum": state.sum,
                        "cumulative_bucket_counts": state.cumulative(),
                    }
                    for key, state in sorted(metric.series().items())
                ],
            }
    snapshot: dict[str, Any] = {
        "schema": SNAPSHOT_SCHEMA,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }
    if extra:
        snapshot["meta"] = extra
    return snapshot


def write_snapshot(
    registry: MetricsRegistry, path: str | Path, *, extra: dict[str, Any] | None = None
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = metrics_snapshot(registry, extra=extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# Human summary
# ----------------------------------------------------------------------
def _format_value(value: int | float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _render_rows(rows: list[tuple[str, str, str]]) -> str:
    headers = ("metric", "labels", "value")
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(3)
    ]
    def fmt(row: tuple[str, str, str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()

    lines = [fmt(headers), fmt(tuple("-" * width for width in widths))]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def summary_table(registry: MetricsRegistry) -> str:
    """An aligned text table of every series in the registry."""
    rows: list[tuple[str, str, str]] = []
    for metric in registry.metrics():
        if isinstance(metric, Histogram):
            for key, state in sorted(metric.series().items()):
                mean = state.sum / state.count if state.count else 0.0
                rows.append(
                    (
                        metric.name,
                        _labels_text(key),
                        f"count={state.count} sum={state.sum:.6f}s mean={mean:.6f}s",
                    )
                )
        else:
            for key, value in sorted(metric.series().items()):
                rows.append((metric.name, _labels_text(key), _format_value(value)))
    if not rows:
        return "(no telemetry recorded)"
    return _render_rows(rows)


def _labels_text(key: LabelKey) -> str:
    return ",".join(f"{name}={value}" for name, value in key) or "-"
