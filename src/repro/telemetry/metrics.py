"""Metric primitives: counters and count/sum histograms.

A :class:`MetricsRegistry` owns every metric by name.  Instruments are
get-or-create (``registry.counter("iotls_handshakes_total")`` returns
the same object on every call), carry free-form label sets per
observation, and degrade to no-ops when the owning registry is
disabled -- the single ``registry.enabled`` flag is the only check on
the write path, so disabled-mode overhead is one attribute lookup.

Everything here is dependency-free and wall-clock-free: the registry
stores pure numbers, and exporters (:mod:`repro.telemetry.export`)
decide how to render them.
"""

from __future__ import annotations

import re
from typing import Iterator

__all__ = [
    "Counter",
    "Histogram",
    "HistogramSeries",
    "Metric",
    "MetricsRegistry",
]

#: Prometheus-compatible metric names, enforced at registration.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Canonical form of one observation's labels: sorted (key, value) pairs.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Metric:
    """Base class: a named instrument bound to its registry."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.help = help_text
        self._registry = registry
        self._series: dict[LabelKey, object] = {}

    @property
    def enabled(self) -> bool:
        return self._registry.enabled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, series={len(self._series)})"


class Counter(Metric):
    """A monotonically increasing count, optionally labelled."""

    kind = "counter"

    def inc(self, amount: int | float = 1, **labels: object) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (amount={amount})")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: object) -> int | float:
        return self._series.get(_label_key(labels), 0)

    def total(self) -> int | float:
        return sum(self._series.values())

    def series(self) -> dict[LabelKey, int | float]:
        return dict(self._series)


class HistogramSeries:
    """Per-label-set histogram state: observation count and sum."""

    __slots__ = ("sum", "count")

    def __init__(self) -> None:
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """A distribution kept as count and sum (no buckets, no quantiles)."""

    kind = "histogram"

    def observe(self, value: int | float, **labels: object) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(labels)
        state = self._series.get(key)
        if state is None:
            state = self._series[key] = HistogramSeries()
        state.sum += value
        state.count += 1

    def _state(self, **labels: object) -> HistogramSeries | None:
        return self._series.get(_label_key(labels))

    def count(self, **labels: object) -> int:
        state = self._state(**labels)
        return state.count if state else 0

    def sum(self, **labels: object) -> float:
        state = self._state(**labels)
        return state.sum if state else 0.0

    def series(self) -> dict[LabelKey, HistogramSeries]:
        return dict(self._series)


class MetricsRegistry:
    """A named collection of metrics with one shared enable switch."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: dict[str, Metric] = {}

    # ------------------------------------------------------------------
    # Get-or-create instruments
    # ------------------------------------------------------------------
    def _register(self, cls, name: str, help_text: str) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"requested {cls.kind}"
                )
            return existing
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        metric = cls(name, help_text, self)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(Counter, name, help_text)

    def histogram(self, name: str, help_text: str = "") -> Histogram:
        return self._register(Histogram, name, help_text)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def metrics(self) -> Iterator[Metric]:
        """All registered metrics, sorted by name (export order)."""
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def reset(self) -> None:
        """Drop every registration: what a run declares after a reset is
        exactly what a fresh process would hold after the same run."""
        self._metrics.clear()
