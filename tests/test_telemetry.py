"""Unit tests for the telemetry subsystem: metrics and exporters."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import (
    MetricsRegistry,
    metrics_snapshot,
    summary_table,
    write_snapshot,
)


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
    def test_bucket_placement(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds", buckets=(1.0, 2.0, 5.0))
        hist.observe(0.5)   # le=1
        hist.observe(1.0)   # le=1 (bounds are inclusive)
        hist.observe(3.0)   # le=5
        hist.observe(10.0)  # +Inf
        assert hist.bucket_counts() == [2, 0, 1, 1]
        assert hist.count() == 4
        assert hist.sum() == pytest.approx(14.5)

    def test_cumulative_counts(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 3.0):
            hist.observe(value)
        state = hist.series()[()]
        assert state.cumulative() == [1, 2, 3]

    def test_labelled_series(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        hist.observe(0.1, span="a")
        hist.observe(0.2, span="b")
        assert hist.count(span="a") == 1
        assert hist.count(span="b") == 1
        assert hist.count(span="c") == 0

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=())


class TestDisabledRegistry:
    def test_all_instruments_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c_total")
        hist = registry.histogram("h", buckets=(1.0,))
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
# Exporters
# ----------------------------------------------------------------------
def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    counter = registry.counter("iotls_handshakes_total", "Handshakes by state.")
    counter.inc(3, state="established")
    counter.inc(1, state="client_rejected")
    registry.counter("iotls_trace_devices_total").inc(40)
    hist = registry.histogram("iotls_handshake_seconds", buckets=(0.001, 0.01))
    hist.observe(0.0005)
    hist.observe(0.5)
    return registry


class TestSnapshot:
    def test_shape_and_serialisable(self):
        snapshot = metrics_snapshot(_populated_registry(), extra={"command": "trace"})
        assert snapshot["schema"] == "iotls-telemetry/2"
        assert set(snapshot) == {"schema", "meta", "counters", "histograms"}
        assert snapshot["meta"] == {"command": "trace"}
        handshakes = snapshot["counters"]["iotls_handshakes_total"]
        assert handshakes["total"] == 4
        assert {tuple(s["labels"].items()) for s in handshakes["series"]} == {
            (("state", "established"),),
            (("state", "client_rejected"),),
        }
        hist = snapshot["histograms"]["iotls_handshake_seconds"]
        assert hist["series"][0]["count"] == 2
        assert hist["series"][0]["cumulative_bucket_counts"] == [1, 1, 2]
        json.dumps(snapshot)  # must be serialisable

    def test_snapshot_roundtrip_over_full_catalog(self, tmp_path):
        # Every metric the pipeline emits must survive
        # snapshot -> --metrics-out JSON file -> snapshot unchanged.
        registry = MetricsRegistry()
        registry.counter("iotls_handshakes_total").inc(3, state="established")
        registry.counter("iotls_handshakes_total").inc(1, state="client_rejected")
        registry.counter("iotls_capture_records_total").inc(40)
        registry.counter("iotls_capture_connections_total").inc(700)
        registry.counter("iotls_capture_revocation_events_total").inc(2, method="crl")
        registry.counter("iotls_negotiated_versions_total").inc(5, version="TLS 1.2")
        registry.counter("iotls_campaign_devices_total").inc(32)
        registry.counter("iotls_probe_certificates_total").inc(9, outcome="present")
        registry.counter("iotls_trace_devices_total").inc(40)
        registry.counter("iotls_interception_attempts_total").inc(6, mode="invalid_bc")
        registry.histogram("iotls_handshake_seconds").observe(0.0001)
        path = write_snapshot(registry, tmp_path / "m.json")
        assert json.loads(path.read_text()) == metrics_snapshot(registry)

    def test_write_snapshot(self, tmp_path):
        path = write_snapshot(_populated_registry(), tmp_path / "deep" / "m.json")
        loaded = json.loads(path.read_text())
        assert loaded["counters"]["iotls_handshakes_total"]["total"] == 4


class TestSummaryTable:
    def test_lists_every_series(self):
        table = summary_table(_populated_registry())
        assert "iotls_handshakes_total" in table
        assert "state=established" in table
        assert "count=2" in table  # histogram row

    def test_empty_registry(self):
        assert summary_table(MetricsRegistry()) == "(no telemetry recorded)"
