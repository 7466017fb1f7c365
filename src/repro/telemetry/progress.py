"""Live progress heartbeats: throttled run-health emission.

A long run (a paper-scale ``stream_into``, a fleet campaign) is a black
box without a liveness signal: the operator cannot tell a straggling
shard from a hung one.  This module is the **progress boundary** -- the
one place heartbeats may be emitted unthrottled (reprolint rule RL012
enforces that everywhere else goes through the rate-limited
:meth:`ProgressReporter.advance`):

* :class:`Throttle` -- a monotonic min-interval gate (first call passes,
  so short runs still produce at least one heartbeat),
* :class:`ProgressReporter` -- accumulates work done (plus per-stage
  tallies), and on each throttled emission computes instantaneous and
  EWMA rates, an ETA when a total is known, and an optional resource
  reading; renders to a stderr line and/or a machine-readable stream,
* :class:`HeartbeatWriter` -- the ``--heartbeat-out`` JSONL stream
  (schema :data:`HEALTH_STREAM_SCHEMA`): a header line, throttled
  heartbeat lines, and one final summary line,
* :class:`AccessLog` -- the ``iotls serve`` access log (schema
  :data:`ACCESS_LOG_SCHEMA`): one thread-safe JSONL stream for the
  whole server, where request lifecycle events and per-request
  progress heartbeats from concurrently executing runs interleave
  without tearing.

Heartbeat data is wall-clock-derived and therefore lives entirely
outside run manifests: the reporter touches no counters and the
heartbeat stream is excluded from the deterministic metrics slice by
construction.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from time import perf_counter
from typing import IO, Any, Callable

__all__ = [
    "ACCESS_LOG_SCHEMA",
    "AccessLog",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "HEALTH_STREAM_SCHEMA",
    "HeartbeatWriter",
    "ProgressReporter",
    "Throttle",
    "render_progress_line",
]

# Schema tags of the health stream (``--heartbeat-out``) and the fleet
# service's access log, registered centrally in repro.telemetry.schemas.
from .schemas import ACCESS_LOG_SCHEMA, HEALTH_STREAM_SCHEMA  # noqa: E402

#: Default seconds between heartbeat emissions.
DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: Smoothing factor for the records/s EWMA (higher = more reactive).
_EWMA_ALPHA = 0.3


class Throttle:
    """A monotonic min-interval gate: ``ready()`` is True at most once
    per ``min_interval`` seconds.  The first call always passes, so even
    a sub-interval run emits one heartbeat."""

    def __init__(
        self, min_interval: float, *, clock: Callable[[], float] = perf_counter
    ) -> None:
        if min_interval < 0:
            raise ValueError(f"min_interval must be >= 0, got {min_interval}")
        self.min_interval = min_interval
        self._clock = clock
        self._last: float | None = None

    def ready(self) -> bool:
        """True (and re-arm the interval) when enough time has passed."""
        now = self._clock()
        if self._last is not None and (now - self._last) < self.min_interval:
            return False
        self._last = now
        return True

    def reset(self) -> None:
        self._last = None


class HeartbeatWriter:
    """The ``iotls-health-stream/1`` JSONL writer.

    Line 1 is a header (``kind: header`` with the schema tag and run
    metadata); each heartbeat is one ``kind: heartbeat`` line with a
    monotonic ``seq``; :meth:`close` appends a single ``kind: summary``
    line.  Every line is self-contained JSON, so a tail-following
    consumer (the future ``iotls serve`` status endpoint) can pick up
    mid-stream.
    """

    def __init__(
        self, path: str | Path, *, metadata: dict[str, Any] | None = None
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] | None = self.path.open("w", encoding="utf-8")
        self._seq = 0
        header: dict[str, Any] = {"kind": "header", "schema": HEALTH_STREAM_SCHEMA}
        if metadata:
            header["metadata"] = dict(metadata)
        self._write(header)

    def _write(self, entry: dict[str, Any]) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps(entry, sort_keys=True, default=str) + "\n")
        self._handle.flush()

    def heartbeat(self, fields: dict[str, Any]) -> None:
        self._seq += 1
        self._write({"kind": "heartbeat", "seq": self._seq, **fields})

    def close(self, summary: dict[str, Any] | None = None) -> None:
        """Write the final summary line (if given) and close the stream.
        Idempotent: a second close is a no-op."""
        if self._handle is None:
            return
        if summary is not None:
            self._write({"kind": "summary", **summary})
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "HeartbeatWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class AccessLog:
    """The fleet service's JSONL access log (``iotls-serve-access/1``).

    One instance serves the whole server: the asyncio request handlers
    and the run-executor threads all call :meth:`record` concurrently,
    and a lock serialises each line's format-and-write so the stream
    never tears.  The shape mirrors :class:`HeartbeatWriter` -- a
    ``kind: header`` line, ``kind: event`` lines with a monotonic
    ``seq`` and the seconds since server start, and one ``kind:
    summary`` line (per-event totals) on :meth:`close` -- so the same
    tail-following tooling consumes both streams.

    ``path=None`` keeps the counters (the ``/status`` endpoint reads
    them) without writing anything.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        metadata: dict[str, Any] | None = None,
        clock: Callable[[], float] = perf_counter,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self._handle: IO[str] | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("w", encoding="utf-8")
        self._clock = clock
        self._started = clock()
        self._lock = threading.Lock()
        self._seq = 0
        self._closed = False
        #: Per-event-name totals (read by the ``/status`` endpoint).
        self.counts: dict[str, int] = {}
        header: dict[str, Any] = {"kind": "header", "schema": ACCESS_LOG_SCHEMA}
        if metadata:
            header["metadata"] = dict(metadata)
        self._write(header)

    def _write(self, entry: dict[str, Any]) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps(entry, sort_keys=True, default=str) + "\n")
        self._handle.flush()

    def record(self, event: str, **fields: Any) -> dict[str, Any]:
        """Append one ``kind: event`` line; safe from any thread."""
        with self._lock:
            if self._closed:
                return {}
            self._seq += 1
            entry: dict[str, Any] = {
                "kind": "event",
                "seq": self._seq,
                "event": event,
                "elapsed_seconds": round(self._clock() - self._started, 6),
                **fields,
            }
            self.counts[event] = self.counts.get(event, 0) + 1
            self._write(entry)
            return entry

    def close(self, **summary_fields: Any) -> None:
        """Append the ``kind: summary`` line (per-event totals plus any
        extra fields) and close the stream.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._write(
                {
                    "kind": "summary",
                    "events": self._seq,
                    "counts": dict(sorted(self.counts.items())),
                    "seconds": round(self._clock() - self._started, 6),
                    **summary_fields,
                }
            )
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "AccessLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def render_progress_line(entry: dict[str, Any]) -> str:
    """One human-readable heartbeat line (the ``--progress`` stderr shape)."""
    done = entry["done"]
    total = entry.get("total")
    head = f"{done:,}/{total:,}" if total is not None else f"{done:,}"
    parts = [
        f"progress[{entry['label']}]: {head} done",
        f"{entry['rate']:,.0f}/s (ewma {entry['ewma_rate']:,.0f}/s)",
    ]
    eta = entry.get("eta_seconds")
    if eta is not None:
        parts.append(f"eta {eta:.0f}s")
    stages = entry.get("stages") or {}
    if stages:
        parts.append(
            " ".join(f"{stage}={count}" for stage, count in sorted(stages.items()))
        )
    return " -- ".join(parts)


class ProgressReporter:
    """Accumulates run progress and emits throttled heartbeats.

    Hot paths call :meth:`advance` (cheap: two dict updates plus one
    clock read in the throttle); everything rate-sensitive happens only
    when the throttle opens.  ``done`` counts the run's primary unit
    (flow records for traces, devices for campaigns); ``stages`` holds
    independent per-stage tallies.

    Emission targets are all optional: ``stream`` (a callable receiving
    rendered lines -- the ``--progress`` stderr hook) and ``heartbeat``
    (a :class:`HeartbeatWriter`).  ``sampler`` (a
    :class:`~repro.telemetry.health.ResourceSampler`) contributes a
    resource reading per heartbeat and the ``resources`` section of the
    final summary.
    """

    def __init__(
        self,
        *,
        label: str = "run",
        total: int | None = None,
        interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        throttle: Throttle | None = None,
        stream: Callable[[str], None] | None = None,
        heartbeat: HeartbeatWriter | None = None,
        sampler: Any | None = None,
        clock: Callable[[], float] = perf_counter,
    ) -> None:
        self.label = label
        self.total = total
        self.throttle = throttle if throttle is not None else Throttle(interval, clock=clock)
        self.stream = stream
        self.heartbeat = heartbeat
        self.sampler = sampler
        self._clock = clock
        self.done = 0
        self.stages: dict[str, int] = {}
        self.heartbeats = 0
        self.ewma_rate = 0.0
        #: The final summary document; set once by :meth:`finish`.
        self.summary: dict[str, Any] | None = None
        self._started = clock()
        self._last_time = self._started
        self._last_done = 0

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def advance(self, n: int = 1, *, stage: str | None = None, stage_n: int = 1) -> None:
        """Record ``n`` units of work (and bump ``stage``'s tally by
        ``stage_n``); emit a heartbeat only if the throttle allows."""
        self.done += n
        if stage is not None:
            self.stages[stage] = self.stages.get(stage, 0) + stage_n
        if self.throttle.ready():
            self.emit_now()

    # ------------------------------------------------------------------
    # Emission (the RL012 boundary: only this module calls emit_now)
    # ------------------------------------------------------------------
    def snapshot(self, *, reason: str = "interval") -> dict[str, Any]:
        """The current progress reading (advances the rate window)."""
        now = self._clock()
        elapsed = now - self._started
        window = now - self._last_time
        window_done = self.done - self._last_done
        instant = window_done / window if window > 0 else 0.0
        if self.heartbeats == 0:
            self.ewma_rate = instant
        else:
            self.ewma_rate = _EWMA_ALPHA * instant + (1 - _EWMA_ALPHA) * self.ewma_rate
        self._last_time, self._last_done = now, self.done
        entry: dict[str, Any] = {
            "label": self.label,
            "reason": reason,
            "done": self.done,
            "elapsed_seconds": round(elapsed, 6),
            "rate": round(instant, 1),
            "ewma_rate": round(self.ewma_rate, 1),
            "stages": dict(sorted(self.stages.items())),
        }
        if self.total is not None:
            entry["total"] = self.total
            if self.ewma_rate > 0:
                remaining = max(0, self.total - self.done)
                entry["eta_seconds"] = round(remaining / self.ewma_rate, 1)
        if self.sampler is not None:
            entry["resources"] = self.sampler.sample("heartbeat").to_dict()
        return entry

    def emit_now(self, *, reason: str = "interval") -> dict[str, Any]:
        """Emit one heartbeat unconditionally (throttle already decided)."""
        entry = self.snapshot(reason=reason)
        self.heartbeats += 1
        if self.stream is not None:
            self.stream(render_progress_line(entry))
        if self.heartbeat is not None:
            self.heartbeat.heartbeat(entry)
        return entry

    def finish(self) -> dict[str, Any]:
        """Emit the final heartbeat, stop the sampler, close the stream.

        Returns (and stores as :attr:`summary`) the run-health summary:
        totals, overall rate, per-stage tallies, and -- when a sampler
        was attached -- its ``resources`` section.  Safe to call on
        error paths; a second call returns the stored summary.
        """
        if self.summary is not None:
            return self.summary
        entry = self.emit_now(reason="final")
        elapsed = entry["elapsed_seconds"]
        summary: dict[str, Any] = {
            "label": self.label,
            "done": self.done,
            "seconds": elapsed,
            "rate": round(self.done / elapsed, 1) if elapsed > 0 else 0.0,
            "heartbeats": self.heartbeats,
            "stages": dict(sorted(self.stages.items())),
        }
        if self.sampler is not None:
            self.sampler.stop()
            summary["resources"] = self.sampler.summary()
        if self.heartbeat is not None:
            self.heartbeat.close(summary)
        self.summary = summary
        return summary
