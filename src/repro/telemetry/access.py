"""The fleet service's access log: one thread-safe JSONL stream.

:class:`AccessLog` is the ``iotls serve`` access log (schema
:data:`ACCESS_LOG_SCHEMA`): request lifecycle events and the per-run
``request.heartbeat`` events of concurrently executing runs interleave
in it without tearing.  The ``/status`` endpoint reads its per-event
counters.

Every line is wall-clock-derived, so nothing here ever enters a run
manifest.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from time import perf_counter
from typing import IO, Any, Callable

__all__ = ["ACCESS_LOG_SCHEMA", "AccessLog"]

# Schema tag of the access log, registered centrally in
# repro.telemetry.schemas.
from .schemas import ACCESS_LOG_SCHEMA  # noqa: E402


class AccessLog:
    """The fleet service's JSONL access log (``iotls-serve-access/1``).

    One instance serves the whole server: the asyncio request handlers
    and the run-executor threads all call :meth:`record` concurrently,
    and a lock serialises each line's format-and-write so the stream
    never tears.  The stream is a ``kind: header`` line, ``kind: event``
    lines with a monotonic ``seq`` and the seconds since server start,
    and one ``kind: summary`` line (per-event totals) on :meth:`close`;
    every line is self-contained JSON, so a tail-following consumer can
    pick up mid-stream.

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
