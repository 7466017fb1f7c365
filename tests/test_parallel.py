"""Parallel execution layer: sharding, the warm pool, and serial equivalence.

The contract under test: a run handed a warm pool produces *identical*
artifacts to the serial one -- same capture JSON, same campaign headline
numbers, same manifests -- and a pooled run refuses telemetry, which
its workers would never ship home.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.analysis.export import capture_to_document
from repro.core.audit import ActiveExperimentCampaign, round_robin_shards
from repro.longitudinal.generator import PassiveTraceGenerator
from repro.parallel import WarmWorkerPool

SEED = "parallel-equivalence"
SCALE = 2


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.configure(enabled=False)
    yield
    telemetry.configure(enabled=False)


# ----------------------------------------------------------------------
# Campaign sharding
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


# ----------------------------------------------------------------------
# Warm worker pool
# ----------------------------------------------------------------------
class TestWarmPoolSession:
    def test_pool_requires_two_workers(self):
        with pytest.raises(ValueError):
            WarmWorkerPool(1)

    def test_warm_pool_reuse_accounting(self):
        with WarmWorkerPool(2) as pool:
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
        pool.close()  # idempotent after the with block


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
# Serial-vs-pooled equivalence
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


@pytest.mark.parametrize(
    "workers, flow_cap",
    [pytest.param(workers, None, id=str(workers)) for workers in (1, 2, 4)]
    + [pytest.param(workers, 5, id=f"{workers}-cap5") for workers in (1, 2, 4)],
)
def test_trace_capture_json_identical(workers, flow_cap, serial_capture_json, worker_pool):
    generator = PassiveTraceGenerator(scale=SCALE, seed=SEED, flow_cap=flow_cap)
    exported = _capture_json(generator.generate(pool=worker_pool(workers)))
    assert exported == serial_capture_json(flow_cap)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.text(min_size=1, max_size=12),
    flow_cap=st.none() | st.integers(min_value=1, max_value=20),
)
def test_pooled_trace_matches_serial_for_any_seed(worker_pool, seed, flow_cap):
    generator = PassiveTraceGenerator(scale=1, seed=seed, flow_cap=flow_cap)
    serial = _capture_json(generator.generate())
    assert _capture_json(generator.generate(pool=worker_pool(2))) == serial


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_campaign_headline_counts_identical(workers, serial_campaign, worker_pool):
    results = ActiveExperimentCampaign().run(pool=worker_pool(workers))
    assert _headline(results) == _headline(serial_campaign)


class TestWarmPoolManifestParity:
    """The warm pool must be invisible in every artifact: a streaming
    trace run produces the same manifest digest with or without it."""

    def test_manifests_identical_across_workers(self, worker_pool):
        from repro.api import RunConfig, run_trace

        def digest(pool) -> str:
            config = RunConfig(
                scale=1, seed="warm-parity", stream=True, ledger=None, pool=pool
            )
            return run_trace(config).manifest_digest

        assert digest(worker_pool(2)) == digest(None)


class _FailingSink:
    records_seen = 0

    def add_batch(self, chunk):
        raise RuntimeError("sink failed")


def test_failing_fold_leaves_pool_usable():
    with WarmWorkerPool(2) as pool:
        with pytest.raises(RuntimeError, match="sink failed"):
            PassiveTraceGenerator(scale=1, seed=SEED).stream_into(
                _FailingSink(), pool=pool
            )
        assert pool.map(abs, [-1, -2]) == [1, 2]


class TestPooledRunsCarryNoTelemetry:
    """Pool processes never ship telemetry home, so a pooled run with
    telemetry on would report counters missing the pooled work."""

    @pytest.mark.parametrize("flag", ["telemetry"])
    def test_run_config_with_pool_raises(self, flag, worker_pool, tmp_path):
        from repro.api import RunConfig, run_trace

        config = RunConfig(scale=1, ledger=None, pool=worker_pool(2), **{flag: True})
        with pytest.raises(ValueError, match="no telemetry"):
            run_trace(config, stream_path=tmp_path / "t.jsonl")
        assert list(tmp_path.iterdir()) == []  # refused before any artifact opened

    def test_enabled_runtime_refuses_dispatch(self, worker_pool):
        telemetry.configure(enabled=True)
        with pytest.raises(ValueError, match="no telemetry"):
            ActiveExperimentCampaign().run(pool=worker_pool(2))
