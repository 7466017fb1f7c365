"""Metric primitives: counters, gauges, and fixed-bucket histograms.

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
from bisect import bisect_left
from typing import Iterable, Iterator

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSeries",
    "Metric",
    "MetricsRegistry",
]

#: Default histogram bucket upper bounds (seconds): tuned for the
#: simulation's microsecond-to-second operation range.  A final +Inf
#: bucket is always implied.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3,
    0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)

#: Prometheus-compatible identifier rules, enforced at registration so
#: every metric the registry holds renders as valid line protocol.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

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

    def label_sets(self) -> list[LabelKey]:
        return sorted(self._series)

    def clear(self) -> None:
        self._series.clear()

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


class Gauge(Metric):
    """A value that can go up and down (phase timings, throughput, ...)."""

    kind = "gauge"

    def set(self, value: int | float, **labels: object) -> None:
        if not self._registry.enabled:
            return
        self._series[_label_key(labels)] = value

    def inc(self, amount: int | float = 1, **labels: object) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def dec(self, amount: int | float = 1, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> int | float:
        return self._series.get(_label_key(labels), 0)

    def series(self) -> dict[LabelKey, int | float]:
        return dict(self._series)


class HistogramSeries:
    """Per-label-set histogram state: bucket counts, sum, and count."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        # One slot per finite bound plus the +Inf overflow slot.
        self.bucket_counts = [0] * (n_buckets + 1)
        self.sum = 0.0
        self.count = 0

    def cumulative(self) -> list[int]:
        """Bucket counts as Prometheus cumulative ``le`` counts."""
        out, running = [], 0
        for value in self.bucket_counts:
            running += value
            out.append(running)
        return out


class Histogram(Metric):
    """A fixed-bucket distribution (no dynamic resizing, no quantiles)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        registry: "MetricsRegistry",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, registry)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        self.buckets = bounds

    def observe(self, value: int | float, **labels: object) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(labels)
        state = self._series.get(key)
        if state is None:
            state = self._series[key] = HistogramSeries(len(self.buckets))
        state.bucket_counts[bisect_left(self.buckets, value)] += 1
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

    def bucket_counts(self, **labels: object) -> list[int]:
        """Raw (non-cumulative) per-bucket counts, +Inf slot last."""
        state = self._state(**labels)
        return list(state.bucket_counts) if state else [0] * (len(self.buckets) + 1)

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
    def _register(self, cls, name: str, help_text: str, **kwargs) -> Metric:
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
        metric = cls(name, help_text, self, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._register(Gauge, name, help_text)

    def histogram(
        self, name: str, help_text: str = "", *, buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._register(Histogram, name, help_text, buckets=buckets)

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
        """Zero every series, keeping registrations (and bucket layouts)."""
        for metric in self._metrics.values():
            metric.clear()

    def clear(self) -> None:
        """Drop every registration entirely."""
        self._metrics.clear()

    @staticmethod
    def validate_label(name: str) -> bool:
        return bool(_LABEL_RE.match(name))
