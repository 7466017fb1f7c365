"""Parallel execution layer: sharding, merging, and serial equivalence.

The contract under test: for any worker count, a parallel run produces
*identical* artifacts to the serial one -- same capture JSON, same
campaign headline numbers, same merged telemetry counter totals.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.analysis.export import capture_to_document
from repro.core.audit import ActiveExperimentCampaign, round_robin_shards
from repro.longitudinal.generator import PassiveTraceGenerator
from repro.parallel import WarmWorkerPool, pool_session
from repro.parallel import pool as pool_module
from repro.telemetry.export import metrics_snapshot
from repro.telemetry.metrics import MetricsRegistry

SEED = "parallel-equivalence"
SCALE = 2


# ----------------------------------------------------------------------
# Campaign sharding and worker-count validation
# ----------------------------------------------------------------------
class TestShardedExecutor:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            round_robin_shards(["a"], 0)

    def test_round_robin_sharding(self):
        shards = round_robin_shards(["a", "b", "c", "d", "e", "f", "g"], 3)
        assert shards == [["a", "d", "g"], ["b", "e"], ["c", "f"]]

    def test_never_more_shards_than_items(self):
        shards = round_robin_shards(["a", "b"], 8)
        assert shards == [["a"], ["b"]]

    def test_shards_cover_all_items_exactly_once(self):
        items = [f"item-{i}" for i in range(17)]
        shards = round_robin_shards(items, 4)
        flattened = [item for shard in shards for item in shard]
        assert sorted(flattened) == sorted(items)

    def test_generator_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            PassiveTraceGenerator(scale=1).generate(workers=0)

    def test_campaign_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ActiveExperimentCampaign().run(workers=0)


# ----------------------------------------------------------------------
# Warm worker pool
# ----------------------------------------------------------------------
class TestWarmPoolSession:
    def test_pool_requires_two_workers(self):
        with pytest.raises(ValueError):
            WarmWorkerPool(1)

    def test_session_is_noop_for_single_worker(self):
        with pool_session(1) as pool:
            assert pool is None
            assert pool_module._ACTIVE_POOL is None

    def test_nested_session_reuses_outer_pool(self, monkeypatch):
        sentinel = object()
        monkeypatch.setattr(pool_module, "_ACTIVE_POOL", sentinel)
        with pool_session(4) as pool:
            assert pool is sentinel

    def test_warm_pool_reuse_accounting(self):
        with pool_session(2) as pool:
            assert pool_module._ACTIVE_POOL is pool
            assert pool.map(abs, [-1, -2, -3]) == [1, 2, 3]
            assert list(pool.imap(abs, [-4])) == [4]
            stats = pool.stats()
            # dispatch_seconds is wall time spent inside pool dispatch;
            # its value is timing noise, but it must be present and sane.
            assert stats.pop("dispatch_seconds") >= 0
            assert stats == {
                "workers": 2,
                "batches": 2,
                "tasks_dispatched": 4,
                "dispatches": 4,
                "reused_dispatches": 2,
            }
        assert pool_module._ACTIVE_POOL is None
        pool.close()  # idempotent after session teardown


class TestPoolTeardown:
    """``close()`` terminates a drained pool and joins one with a
    dispatch still outstanding."""

    def _record_teardown(self, pool: WarmWorkerPool, monkeypatch) -> list[str]:
        calls: list[str] = []
        for name in ("terminate", "close", "join"):
            original = getattr(pool._pool, name)

            def spy(original=original, name=name):
                calls.append(name)
                return original()

            monkeypatch.setattr(pool._pool, name, spy)
        return calls

    def test_drained_pool_terminates(self, monkeypatch):
        pool = WarmWorkerPool(2)
        calls = self._record_teardown(pool, monkeypatch)
        assert pool.map(abs, [-1, -2]) == [1, 2]
        assert list(pool.imap(abs, [-3, -4])) == [3, 4]
        pool.close()
        assert calls == ["terminate"]

    def test_abandoned_imap_still_joins(self, monkeypatch):
        pool = WarmWorkerPool(2)
        calls = self._record_teardown(pool, monkeypatch)
        results = pool.imap(abs, [-1, -2, -3])
        assert next(results) == 1
        pool.close()
        assert calls == ["close", "join"]


# ----------------------------------------------------------------------
# Telemetry merging primitives
# ----------------------------------------------------------------------
class TestMergeSnapshot:
    def _snapshot_of(self, build) -> dict:
        registry = MetricsRegistry(enabled=True)
        build(registry)
        return metrics_snapshot(registry)

    def test_counters_add(self):
        parent = MetricsRegistry(enabled=True)
        parent.counter("requests_total").inc(3, route="a")
        snapshot = self._snapshot_of(
            lambda r: (r.counter("requests_total").inc(2, route="a"),
                       r.counter("requests_total").inc(5, route="b"))
        )
        parent.merge_snapshot(snapshot)
        series = parent.get("requests_total").series()
        assert series[(("route", "a"),)] == 5
        assert series[(("route", "b"),)] == 5

    def test_gauges_adopt_last_value(self):
        parent = MetricsRegistry(enabled=True)
        parent.gauge("wall_seconds").set(1.0)
        snapshot = self._snapshot_of(lambda r: r.gauge("wall_seconds").set(9.0))
        parent.merge_snapshot(snapshot)
        assert parent.get("wall_seconds").series()[()] == 9.0

    def test_histograms_add_buckets_sum_count(self):
        buckets = (0.1, 1.0)

        def build(registry):
            h = registry.histogram("latency_seconds", buckets=buckets)
            h.observe(0.05)
            h.observe(0.5)
            h.observe(5.0)

        parent = MetricsRegistry(enabled=True)
        parent.histogram("latency_seconds", buckets=buckets).observe(0.5)
        parent.merge_snapshot(self._snapshot_of(build))
        state = parent.get("latency_seconds").series()[()]
        assert state.count == 4
        assert state.sum == pytest.approx(6.05)
        assert state.cumulative() == [1, 3, 4]

    def test_histogram_bucket_mismatch_rejected(self):
        parent = MetricsRegistry(enabled=True)
        parent.histogram("latency_seconds", buckets=(0.1, 1.0)).observe(0.5)
        snapshot = self._snapshot_of(
            lambda r: r.histogram("latency_seconds", buckets=(0.5,)).observe(0.2)
        )
        with pytest.raises(ValueError):
            parent.merge_snapshot(snapshot)

    def test_merge_applies_to_disabled_registry(self):
        parent = MetricsRegistry(enabled=False)
        snapshot = self._snapshot_of(lambda r: r.counter("requests_total").inc(7))
        parent.merge_snapshot(snapshot)
        assert parent.get("requests_total").total() == 7


# ----------------------------------------------------------------------
# Serial-vs-parallel equivalence (the tentpole guarantee)
# ----------------------------------------------------------------------
def _capture_json(capture) -> str:
    return json.dumps(capture_to_document(capture), indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def serial_capture_json():
    """The serial capture's JSON per flow cap, generated once each."""
    cache: dict[int | None, str] = {}

    def serial(flow_cap: int | None) -> str:
        if flow_cap not in cache:
            generator = PassiveTraceGenerator(scale=SCALE, seed=SEED, flow_cap=flow_cap)
            cache[flow_cap] = _capture_json(generator.generate())
        return cache[flow_cap]

    return serial


@pytest.fixture(scope="module")
def serial_campaign():
    return ActiveExperimentCampaign().run()


def _headline(results) -> tuple:
    return (
        results.vulnerable_device_count,
        results.sensitive_leak_count,
        results.downgrading_device_count,
        results.old_version_device_count,
        tuple(results.probe_eligible),
        len(results.probes),
        len(results.passthrough),
    )


def _counter_totals() -> dict[str, object]:
    snapshot = metrics_snapshot(telemetry.get_registry())
    return {
        name: sorted(
            (json.dumps(series["labels"], sort_keys=True), series["value"])
            for series in payload["series"]
        )
        for name, payload in snapshot["counters"].items()
    }


@pytest.mark.parametrize(
    "workers, flow_cap",
    [pytest.param(workers, None, id=str(workers)) for workers in (1, 2, 4)]
    + [pytest.param(workers, 5, id=f"{workers}-cap5") for workers in (1, 2, 4)],
)
def test_trace_capture_json_identical(workers, flow_cap, serial_capture_json):
    generator = PassiveTraceGenerator(scale=SCALE, seed=SEED, flow_cap=flow_cap)
    exported = _capture_json(generator.generate(workers=workers))
    assert exported == serial_capture_json(flow_cap)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_campaign_headline_counts_identical(workers, serial_campaign):
    results = ActiveExperimentCampaign().run(workers=workers)
    assert _headline(results) == _headline(serial_campaign)


class TestWarmPoolManifestParity:
    """The warm pool must be invisible in every artifact: a streaming
    trace run produces the same manifest digest at any worker count."""

    def _digest(self, *, workers: int) -> str:
        from repro.api import RunConfig, run_trace

        try:
            result = run_trace(
                RunConfig(
                    scale=1,
                    seed="warm-parity",
                    workers=workers,
                    telemetry=True,
                    stream=True,
                )
            )
        finally:
            telemetry.disable()
        return result.manifest_digest

    def test_manifests_identical_across_workers(self):
        assert self._digest(workers=2) == self._digest(workers=1)


@pytest.mark.parametrize("flow_cap", [None, 5], ids=["nocap", "cap5"])
@pytest.mark.parametrize("stream", [False, True], ids=["materialised", "stream"])
def test_progress_done_identical_across_workers(stream, flow_cap, tmp_path):
    """The heartbeat summary counts the same records at any worker count."""
    from repro.api import RunConfig, run_trace

    def done(workers: int) -> int:
        try:
            result = run_trace(
                RunConfig(
                    scale=1,
                    seed="progress-parity",
                    workers=workers,
                    stream=stream,
                    flow_cap=flow_cap,
                    ledger=None,
                ),
                heartbeat_path=tmp_path / f"w{workers}.health.jsonl",
            )
        finally:
            telemetry.disable()
        return result.health["done"]

    serial = done(1)
    assert serial > 0
    assert done(2) == serial


class _FailingSink:
    records_seen = 0

    def add_batch(self, chunk):
        raise RuntimeError("sink failed")


def test_failing_fold_closes_dispatch_span_and_pool():
    runtime = telemetry.configure(enabled=True)
    try:
        with pytest.raises(RuntimeError, match="sink failed"):
            PassiveTraceGenerator(scale=1, seed=SEED).stream_into(
                _FailingSink(), workers=2
            )
        assert runtime.tracer.current_path() == ""
        assert pool_module._ACTIVE_POOL is None
    finally:
        telemetry.disable()


@pytest.mark.parametrize("workers", [2, 4])
def test_merged_telemetry_counters_identical(workers):
    try:
        telemetry.configure(enabled=True)
        PassiveTraceGenerator(scale=SCALE, seed=SEED).generate()
        serial_totals = _counter_totals()

        telemetry.configure(enabled=True)
        PassiveTraceGenerator(scale=SCALE, seed=SEED).generate(workers=workers)
        parallel_totals = _counter_totals()
    finally:
        telemetry.disable()
    assert parallel_totals == serial_totals
    assert parallel_totals["iotls_trace_devices_total"] == [("{}", 40)]
