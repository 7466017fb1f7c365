"""The human summary of a :class:`~repro.telemetry.metrics.MetricsRegistry`.

:func:`summary_table` renders every series as an aligned text table for
CLI output.  The machine-readable metrics are the run manifest's
``metrics`` section (:func:`repro.telemetry.provenance.deterministic_metrics`).
"""

from __future__ import annotations

from .metrics import Histogram, LabelKey, MetricsRegistry

__all__ = ["summary_table"]


def _format_value(value: int | float) -> str:
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
