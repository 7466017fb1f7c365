"""Unit tests for the telemetry subsystem: metrics and the summary table."""

from __future__ import annotations

import pytest

from repro.telemetry import MetricsRegistry, summary_table


# ----------------------------------------------------------------------
# Counters / histograms
# ----------------------------------------------------------------------
class TestCounters:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5
        assert counter.total() == 5

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("handshakes_total")
        counter.inc(state="established")
        counter.inc(2, state="client_rejected")
        counter.inc(state="established")
        assert counter.value(state="established") == 2
        assert counter.value(state="client_rejected") == 2
        assert counter.value(state="no_response") == 0
        assert counter.total() == 4

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert counter.value(a="1", b="2") == 2
        assert len(counter.series()) == 1

    def test_counter_rejects_decrease(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x_total")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            MetricsRegistry().counter("bad name!")


class TestHistograms:
    def test_count_and_sum(self):
        hist = MetricsRegistry().histogram("latency_seconds")
        for value in (0.5, 1.0, 3.0, 10.0):
            hist.observe(value)
        assert hist.count() == 4
        assert hist.sum() == pytest.approx(14.5)

    def test_labelled_series(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(0.1, span="a")
        hist.observe(0.2, span="b")
        assert hist.count(span="a") == 1
        assert hist.count(span="b") == 1
        assert hist.count(span="c") == 0


class TestDisabledRegistry:
    def test_all_instruments_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c_total")
        hist = registry.histogram("h")
        counter.inc(5, state="x")
        hist.observe(0.5)
        assert counter.total() == 0
        assert hist.count() == 0
        assert counter.series() == {}

    def test_reenabling_records_again(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c_total")
        counter.inc()
        registry.enabled = True
        counter.inc()
        assert counter.total() == 1

    def test_reset_drops_registrations(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(3)
        registry.reset()
        assert "c_total" not in registry
        assert list(registry.metrics()) == []
        assert registry.counter("c_total").total() == 0


# ----------------------------------------------------------------------
# Summary table
# ----------------------------------------------------------------------
def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    counter = registry.counter("iotls_handshakes_total", "Handshakes by state.")
    counter.inc(3, state="established")
    counter.inc(1, state="client_rejected")
    registry.counter("iotls_trace_devices_total").inc(40)
    hist = registry.histogram("iotls_handshake_seconds")
    hist.observe(0.0005)
    hist.observe(0.5)
    return registry


class TestSummaryTable:
    def test_lists_every_series(self):
        table = summary_table(_populated_registry())
        assert "iotls_handshakes_total" in table
        assert "state=established" in table
        assert "count=2" in table  # histogram row

    def test_empty_registry(self):
        assert summary_table(MetricsRegistry()) == "(no telemetry recorded)"
