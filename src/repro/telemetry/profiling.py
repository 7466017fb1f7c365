"""Profiling over the span tracer: hot spans, phases, flames.

The :class:`~repro.telemetry.tracing.Tracer` already records every
instrumented interval; this module turns those finished spans into a
profile after the run, so profiling adds **zero** hot-path cost beyond
the tracing that telemetry already pays -- and when telemetry is off,
the disabled path is still the tracer's single boolean read.

A :class:`Profiler` aggregates spans by *stack path* (the ``;``-joined
chain of span names from root to leaf, the classic collapsed-stack
key):

* **cumulative time** -- total wall time spent inside the span,
* **self time** -- cumulative minus the time spent in child spans,
* **calls / min / max** -- per-path call statistics.

Three render targets:

* :meth:`Profiler.hot_spans` / :func:`render_hot_table` -- the top-N
  table ``iotls trace --profile`` prints,
* :meth:`Profiler.collapsed_stacks` -- ``stack;path <microseconds>``
  lines, directly consumable by flamegraph tooling
  (``flamegraph.pl --countname us``),
* :meth:`Profiler.to_dict` -- the machine-readable document behind
  ``--profile-out``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .tracing import Span, Tracer

__all__ = ["PathStat", "Profiler", "render_hot_table"]

from .schemas import PROFILE_SCHEMA  # registered in repro.telemetry.schemas


class PathStat:
    """Aggregate statistics for one stack path."""

    __slots__ = ("path", "calls", "cumulative", "self_time", "min", "max")

    def __init__(self, path: str) -> None:
        self.path = path
        self.calls = 0
        self.cumulative = 0.0
        self.self_time = 0.0
        self.min = float("inf")
        self.max = 0.0

    @property
    def name(self) -> str:
        """The leaf span name of this path."""
        return self.path.rsplit(";", 1)[-1]

    @property
    def mean(self) -> float:
        return self.cumulative / self.calls if self.calls else 0.0

    def add(self, duration: float, self_time: float) -> None:
        self.calls += 1
        self.cumulative += duration
        self.self_time += self_time
        self.min = min(self.min, duration)
        self.max = max(self.max, duration)

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "calls": self.calls,
            "cumulative_seconds": self.cumulative,
            "self_seconds": self.self_time,
            "min_seconds": self.min if self.calls else 0.0,
            "max_seconds": self.max,
        }


def _span_path(span: "Span") -> str:
    names = [span.name]
    node = span.parent
    while node is not None:
        names.append(node.name)
        node = node.parent
    return ";".join(reversed(names))


class Profiler:
    """Aggregates finished spans by path."""

    def __init__(self) -> None:
        self._paths: dict[str, PathStat] = {}

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add_spans(self, spans: Iterable["Span"]) -> "Profiler":
        """Fold finished spans in, computing self time from children."""
        for span in spans:
            if span.duration is None:
                continue
            child_time = sum(
                child.duration for child in span.children if child.duration is not None
            )
            stat = self._stat(_span_path(span))
            stat.add(span.duration, max(0.0, span.duration - child_time))
        return self

    @classmethod
    def from_tracer(cls, tracer: "Tracer") -> "Profiler":
        return cls().add_spans(tracer.finished)

    def _stat(self, path: str) -> PathStat:
        stat = self._paths.get(path)
        if stat is None:
            stat = self._paths[path] = PathStat(path)
        return stat

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._paths)

    def paths(self) -> list[PathStat]:
        return sorted(self._paths.values(), key=lambda s: s.path)

    def hot_spans(self, n: int = 10, *, by: str = "cumulative") -> list[PathStat]:
        """The top-N paths by ``cumulative`` (default) or ``self`` time."""
        if by not in ("cumulative", "self"):
            raise ValueError(f"unknown sort key {by!r}; expected cumulative or self")
        key = (lambda s: s.cumulative) if by == "cumulative" else (lambda s: s.self_time)
        return sorted(self._paths.values(), key=key, reverse=True)[:n]

    def phases(self) -> dict[str, float]:
        """Cumulative seconds per leaf span name (the phase view)."""
        totals: dict[str, float] = {}
        for stat in self._paths.values():
            totals[stat.name] = totals.get(stat.name, 0.0) + stat.cumulative
        return dict(sorted(totals.items()))

    def collapsed_stacks(self) -> str:
        """Collapsed-stack lines (``path <microseconds>``), flamegraph-ready.

        Self time, not cumulative -- the flamegraph convention, so parent
        frames don't double-count their children."""
        lines = [
            f"{stat.path} {max(0, round(stat.self_time * 1e6))}"
            for stat in self.paths()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self, *, top: int = 10) -> dict[str, Any]:
        """The machine-readable profile document (``--profile-out``)."""
        return {
            "schema": PROFILE_SCHEMA,
            "spans": [stat.to_dict() for stat in self.paths()],
            "hot": [stat.to_dict() for stat in self.hot_spans(top)],
            "phases": self.phases(),
            "collapsed_stacks": self.collapsed_stacks(),
        }


def render_hot_table(profiler: Profiler, *, top: int = 10) -> str:
    """The aligned top-N hot-span table ``--profile`` prints."""
    stats = profiler.hot_spans(top)
    if not stats:
        return "(no spans recorded -- was telemetry enabled?)"
    headers = ("span path", "calls", "cum (s)", "self (s)", "mean (ms)")
    rows = [
        (
            stat.path,
            str(stat.calls),
            f"{stat.cumulative:.4f}",
            f"{stat.self_time:.4f}",
            f"{stat.mean * 1e3:.3f}",
        )
        for stat in stats
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) for i in range(len(headers))
    ]

    def fmt(row: tuple[str, ...]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()

    lines = [fmt(headers), fmt(tuple("-" * width for width in widths))]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
