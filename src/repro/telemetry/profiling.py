"""Profiling over the span tracer: hot spans, phases, shards, flames.

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

Parallel runs: worker processes aggregate their own spans
(:meth:`Profiler.to_payload`) and ship the pure-data result home with
the rest of the worker state; the parent folds every payload in with
:meth:`Profiler.merge_payload`, attributing each task's root span
(``shard.run`` or ``chunk.run``) to the pool process that ran it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .runtime import TelemetryRuntime
    from .tracing import Span, Tracer

__all__ = ["PathStat", "Profiler", "render_hot_table"]

from .schemas import PROFILE_SCHEMA  # registered in repro.telemetry.schemas

#: Span names that root one worker's whole shard of work.  Their
#: cumulative time is the shard wall time, and on merge the worker's
#: paths are re-parented under the coordinator's dispatch path here.
SHARD_ROOT_SPANS = ("shard.run", "chunk.run")


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
    """Aggregates finished spans (local and worker-exported) by path."""

    def __init__(self) -> None:
        self._paths: dict[str, PathStat] = {}
        #: Per-process wall times (parallel runs only), keyed by the
        #: pool process a payload names -- or by its worker id when it
        #: names none -- so a process serving many tasks is one shard.
        self.shards: dict[int | str, float] = {}

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

    @classmethod
    def from_runtime(cls, runtime: "TelemetryRuntime") -> "Profiler":
        """The full picture of one run: the runtime's own spans plus any
        worker profiles merged in after a parallel run."""
        profiler = cls.from_tracer(runtime.tracer)
        for payload in runtime.worker_profiles:
            profiler.merge_payload(payload)
        return profiler

    def _stat(self, path: str) -> PathStat:
        stat = self._paths.get(path)
        if stat is None:
            stat = self._paths[path] = PathStat(path)
        return stat

    # ------------------------------------------------------------------
    # Worker transfer (pure data across the spawn boundary)
    # ------------------------------------------------------------------
    def to_payload(
        self,
        *,
        worker: int | None = None,
        span_parent: str | None = None,
        process: str | None = None,
    ) -> dict[str, Any]:
        """Everything a worker ships home: path stats plus shard time.

        The shard wall time is the cumulative time of the worker's
        shard-root span (:data:`SHARD_ROOT_SPANS`), which wraps its
        whole work loop.  ``process`` names the pool process that ran
        the task; merge sums shard time per process.  ``span_parent`` is
        the coordinator's open span path at dispatch
        (:meth:`~repro.telemetry.tracing.Tracer.propagation_context`);
        when present it rides along so the merge side can re-parent this
        worker's paths under the coordinator's dispatch span.
        """
        shard_seconds = sum(
            stat.cumulative
            for stat in self._paths.values()
            if stat.path in SHARD_ROOT_SPANS
        )
        payload: dict[str, Any] = {
            "worker": worker,
            "shard_seconds": shard_seconds,
            "paths": [
                {
                    "path": stat.path,
                    "calls": stat.calls,
                    "cumulative": stat.cumulative,
                    "self": stat.self_time,
                    "min": stat.min if stat.calls else 0.0,
                    "max": stat.max,
                }
                for stat in sorted(self._paths.values(), key=lambda s: s.path)
            ],
        }
        if process is not None:
            payload["process"] = process
        if span_parent is not None:
            payload["span_parent"] = span_parent
        return payload

    def merge_payload(self, payload: dict[str, Any]) -> "Profiler":
        """Fold one worker's exported profile into this one.

        When the payload carries a ``span_parent``, every worker path is
        re-parented under it (the coordinator's open span path at
        dispatch), stitching the
        worker's spans into the coordinator's end-to-end trace -- a
        worker ``chunk.run;trace.device`` becomes
        ``trace.generate;parallel.dispatch;chunk.run;trace.device``.
        Merging is order-independent: path stats add commutatively and
        shard times add per pool process (per worker id for payloads
        that name no process).
        """
        span_parent = payload.get("span_parent")
        prefix = f"{span_parent};" if span_parent else ""
        for entry in payload.get("paths", []):
            stat = self._stat(prefix + entry["path"])
            stat.calls += entry["calls"]
            stat.cumulative += entry["cumulative"]
            stat.self_time += entry["self"]
            stat.min = min(stat.min, entry["min"])
            stat.max = max(stat.max, entry["max"])
        worker = payload.get("worker")
        key = payload.get("process", None if worker is None else int(worker))
        if key is not None:
            self.shards[key] = self.shards.get(key, 0.0) + payload.get(
                "shard_seconds", 0.0
            )
        return self

    def shard_skew(self) -> dict[str, Any] | None:
        """Straggler attribution across shard wall times.

        ``max_over_mean`` is the skew figure: 1.0 means perfectly even
        shards, 2.0 means the slowest worker took twice the mean (the
        run's critical path is that straggler).  ``slowest_worker`` is
        that shard's position in sorted key order, an index in
        ``range(workers)``.  ``None`` with fewer than two shards --
        skew needs a comparison.
        """
        if len(self.shards) < 2:
            return None
        keys = sorted(self.shards)
        times = [self.shards[key] for key in keys]
        mean = sum(times) / len(times)
        slowest = times.index(max(times))
        return {
            "workers": len(times),
            "max_seconds": round(max(times), 6),
            "min_seconds": round(min(times), 6),
            "mean_seconds": round(mean, 6),
            "max_over_mean": round(max(times) / mean, 4) if mean > 0 else 0.0,
            "slowest_worker": slowest,
        }

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
            "shards": {str(worker): seconds for worker, seconds in sorted(self.shards.items())},
            "shard_skew": self.shard_skew(),
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
    if profiler.shards:
        lines.append("")
        lines.append("per-shard wall time:")
        # Numbered like shard_skew's slowest_worker: by sorted key.
        for index, (_, seconds) in enumerate(sorted(profiler.shards.items())):
            lines.append(f"  shard {index}: {seconds:.4f}s")
        skew = profiler.shard_skew()
        if skew is not None:
            lines.append(
                f"  skew: {skew['max_over_mean']:.2f}x "
                f"(slowest worker {skew['slowest_worker']}: "
                f"{skew['max_seconds']:.4f}s vs mean {skew['mean_seconds']:.4f}s)"
            )
    return "\n".join(lines)
