"""Lightweight span tracing with monotonic timing and nesting.

``with tracer.span("handshake", device=..., host=...)`` opens a span:
a named, attributed interval timed with :func:`time.perf_counter`.
Spans nest -- the tracer keeps a stack, so a span opened while another
is active becomes its child -- and finished spans land in a bounded
deque (oldest evicted first) for inspection and export.

When the tracer holds a :class:`~repro.telemetry.metrics.MetricsRegistry`,
every finished span also feeds the ``iotls_span_duration_seconds``
histogram (labelled by span name), tying the trace and metric views of
the same run together.

Disabled tracers yield the shared :data:`NULL_SPAN`, whose methods are
no-ops, so instrumented code never branches on tracer state itself.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

from .metrics import MetricsRegistry

__all__ = ["Span", "Tracer", "NULL_SPAN"]

#: Metric fed by finished spans when the tracer has a registry.
SPAN_DURATION_METRIC = "iotls_span_duration_seconds"


class Span:
    """One named, timed interval with attributes and child spans."""

    __slots__ = ("name", "attributes", "parent", "children", "start", "end")

    def __init__(
        self, name: str, attributes: dict[str, object], parent: "Span | None"
    ) -> None:
        self.name = name
        self.attributes = attributes
        self.parent = parent
        self.children: list[Span] = []
        self.start: float | None = None
        self.end: float | None = None

    def annotate(self, **attributes: object) -> None:
        """Attach attributes discovered mid-span."""
        self.attributes.update(attributes)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float | None:
        """Elapsed seconds (monotonic); ``None`` until the span closes."""
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    def depth(self) -> int:
        depth, node = 0, self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "attributes": dict(self.attributes),
            "duration_seconds": self.duration,
            "depth": self.depth(),
            "children": [child.name for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        took = f"{self.duration:.6f}s" if self.finished else "open"
        return f"Span({self.name!r}, {took}, attrs={self.attributes})"


class _NullSpan:
    """The span handed out when tracing is disabled; every method no-ops."""

    __slots__ = ()
    name = ""
    attributes: dict[str, object] = {}
    parent = None
    children: list[Span] = []
    finished = False
    duration = None

    def annotate(self, **attributes: object) -> None:
        return None

    def depth(self) -> int:
        return 0


NULL_SPAN = _NullSpan()


class Tracer:
    """A stack-based span tracer with a bounded finished-span buffer."""

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        enabled: bool = True,
        keep: int = 2048,
    ) -> None:
        self.enabled = enabled
        self._registry = registry
        self._stack: list[Span] = []
        #: Completed spans in completion order (children before parents).
        self.finished: deque[Span] = deque(maxlen=keep)

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span | _NullSpan]:
        if not self.enabled:
            yield NULL_SPAN
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(name, dict(attributes), parent)
        if parent is not None:
            parent.children.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            # Guard against a mis-nested exit tearing down the wrong frame.
            if self._stack and self._stack[-1] is span:
                self._stack.pop()
            self.finished.append(span)
            if self._registry is not None and self._registry.enabled:
                self._registry.histogram(
                    SPAN_DURATION_METRIC, "Duration of traced spans by name."
                ).observe(span.duration, span=span.name)

    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def roots(self) -> list[Span]:
        """Finished top-level spans (no parent), oldest first."""
        return [span for span in self.finished if span.parent is None]

    def by_name(self, name: str) -> list[Span]:
        return [span for span in self.finished if span.name == name]

    def reset(self) -> None:
        self._stack.clear()
        self.finished.clear()
