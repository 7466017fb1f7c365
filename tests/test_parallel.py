"""Parallel execution layer: sharding, the warm pool, and serial equivalence.

The contract under test: a run handed a warm pool produces *identical*
artifacts to the serial one -- same capture JSON, same campaign headline
numbers, same manifests -- a pooled run refuses telemetry, which its
workers would never ship home, and a worker that dies ends the dispatch
in a typed error, never a hang.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro import telemetry
from repro.analysis.export import capture_to_document
from repro.api import WorkerCrashed
from repro.core.audit import ActiveExperimentCampaign, round_robin_shards
from repro.devices.catalog import passive_devices
from repro.devices.device import Device
from repro.longitudinal.generator import PassiveTraceGenerator
from repro.parallel import WarmWorkerPool
from repro.testbed import Testbed
from repro.testbed.capture import RecordChunk

from .equality import first_difference

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
                "dispatches": 4,
                "reused_dispatches": 2,
            }
        pool.close()  # idempotent after the with block

    def test_kept_results_dispatch_each_key_once(self):
        with WarmWorkerPool(2) as pool:
            assert list(pool.kept(abs, [-1, -2])) == [1, 2]
            assert pool.stats()["dispatches"] == 2
            # Only the key not kept yet is a task; order follows the keys.
            assert list(pool.kept(abs, [-3, -2, -1])) == [3, 2, 1]
            assert pool.stats()["dispatches"] == 3
            assert list(pool.kept(abs, [-2])) == [2]
            assert pool.stats()["dispatches"] == 3
        assert pool._kept == {}  # a closed pool keeps nothing


#: Seconds a pool call may take before the test calls it hung.
DEADLINE = 30.0


def within(seconds: float, call):
    """``call()`` on a thread joined with a timeout: a call still
    running after ``seconds`` fails the test instead of hanging it."""
    outcome: dict = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _exit_worker(code: int) -> None:
    os._exit(code)


def _mark_done(path: str) -> str:
    time.sleep(0.25)
    Path(path).touch()
    return path


class TestPoolTeardown:
    """Tasks not yet started are cancelled, so neither an abandoned
    ``imap`` nor ``close()`` waits for the rest of a dispatch."""

    TASKS = 40  # 10 s of work on 2 workers

    def _paths(self, tmp_path) -> list[str]:
        return [str(tmp_path / f"{i}.done") for i in range(self.TASKS)]

    def test_close_with_an_abandoned_imap_returns(self, tmp_path):
        pool = WarmWorkerPool(2)
        results = pool.imap(_mark_done, self._paths(tmp_path))
        assert next(results) == str(tmp_path / "0.done")
        # Running every task would take 10 s; close() cancels the rest.
        within(5.0, pool.close)
        assert len(list(tmp_path.iterdir())) < self.TASKS

    def test_closing_imap_part_way_cancels_unstarted_tasks(self, tmp_path):
        with WarmWorkerPool(2) as pool:
            results = pool.imap(_mark_done, self._paths(tmp_path))
            assert next(results) == str(tmp_path / "0.done")
            results.close()
            # The tasks already handed to a process finish; none after.
            within(DEADLINE, lambda: pool.map(abs, [-1]))
            assert len(list(tmp_path.iterdir())) < self.TASKS


class TestWorkerDeath:
    """A dead worker ends its dispatch in ``WorkerCrashed``; the pool has
    live processes again by the time the error arrives."""

    def test_dead_worker_raises_then_the_pool_serves_again(self):
        with WarmWorkerPool(2) as pool:
            with pytest.raises(WorkerCrashed):
                within(DEADLINE, lambda: pool.map(_exit_worker, [9]))
            assert within(DEADLINE, lambda: pool.map(abs, [-1, -2])) == [1, 2]

    def test_concurrent_dispatches_share_one_rebuild(self, tmp_path, monkeypatch):
        spawned = []
        real_spawn = WarmWorkerPool._spawn

        def counting_spawn(pool):
            spawned.append(real_spawn(pool))
            return spawned[-1]

        monkeypatch.setattr(WarmWorkerPool, "_spawn", counting_spawn)
        before = set(multiprocessing.active_children())
        with WarmWorkerPool(2) as pool:
            victim = (set(multiprocessing.active_children()) - before).pop()
            crashed = []

            def dispatch(thread: int) -> None:
                paths = [str(tmp_path / f"{thread}-{i}") for i in range(8)]
                with pytest.raises(WorkerCrashed):
                    pool.map(_mark_done, paths)
                crashed.append(thread)

            # More dispatching threads than cores, all on the first executor.
            threads = [threading.Thread(target=dispatch, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + DEADLINE
            while pool.stats()["dispatches"] < 4 * 8 and time.monotonic() < deadline:
                time.sleep(0.01)
            os.kill(victim.pid, signal.SIGKILL)
            for thread in threads:
                thread.join(DEADLINE)
            assert not any(thread.is_alive() for thread in threads)
            assert sorted(crashed) == [0, 1, 2, 3]
            assert len(spawned) == 2  # the first executor and one rebuild
            assert within(DEADLINE, lambda: pool.map(abs, [-1, -2])) == [1, 2]

    def test_script_without_main_guard_fails_fast(self, tmp_path):
        # Spawned workers re-run an unguarded script, whose pool cannot
        # start processes while its own process is still bootstrapping.
        script = tmp_path / "unguarded.py"
        script.write_text(
            textwrap.dedent(
                """
                from repro.parallel import WarmWorkerPool

                print(WarmWorkerPool(2).map(abs, [-1, -2]))
                """
            )
        )
        src = Path(__file__).resolve().parents[1] / "src"
        completed = subprocess.run(
            [sys.executable, str(script)],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=DEADLINE,
        )
        assert completed.returncode != 0
        assert "repro.api.WorkerCrashed" in completed.stderr


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
def test_trace_capture_json_identical(workers, flow_cap, serial_capture_json):
    # Each case first sends another seed through its own pool, so a
    # pool that served stale state from an earlier trace shows here
    # whatever ran before; one worker is the in-process path.
    pool = WarmWorkerPool(workers) if workers > 1 else None
    try:
        PassiveTraceGenerator(scale=SCALE, seed=f"{SEED}-before", flow_cap=flow_cap).generate(
            pool=pool
        )
        generator = PassiveTraceGenerator(scale=SCALE, seed=SEED, flow_cap=flow_cap)
        exported = _capture_json(generator.generate(pool=pool))
    finally:
        if pool is not None:
            pool.close()
    difference = first_difference(exported, serial_capture_json(flow_cap))
    assert difference is None, f"pooled capture JSON differs from serial: {difference}"


# No shrink phase: each example runs a full trace twice, so shrinking a
# failure would spend Hypothesis's 300 s shrink budget before reporting.
# The failing example is reported as generated.
@settings(max_examples=6, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    seed=st.text(min_size=1, max_size=12),
    scale=st.integers(min_value=1, max_value=4),
    flow_cap=st.none() | st.integers(min_value=1, max_value=20),
)
def test_pooled_trace_matches_serial_for_any_seed(worker_pool, seed, scale, flow_cap):
    # The session pool keeps the replays of earlier examples (and
    # earlier tests), so most chunks here are counts over kept replays;
    # the serial run replays on a fresh testbed.
    generator = PassiveTraceGenerator(scale=scale, seed=seed, flow_cap=flow_cap)
    serial = _capture_json(generator.generate())
    difference = first_difference(_capture_json(generator.generate(pool=worker_pool(2))), serial)
    assert difference is None, f"pooled capture JSON differs from serial: {difference}"


def _columns(chunk: RecordChunk) -> tuple:
    return tuple(
        getattr(chunk, name) for name in RecordChunk.__slots__ if name != "line_pieces"
    )


class _Chunks(list):
    """A sink that keeps every chunk it is handed."""

    add_batch = list.append


def test_the_pool_holder_replays_each_device_once(monkeypatch):
    """After a pool's first trace, a trace for any seed or scale
    dispatches nothing and makes no handshake, and its chunks are the
    ones a fresh serial generator builds."""
    connects = []
    original = Device.connect_destination

    def counting(self, *args, **kwargs):
        connects.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Device, "connect_destination", counting)
    names = [profile.name for profile in passive_devices()]
    with WarmWorkerPool(2) as pool:
        PassiveTraceGenerator(seed="first", scale=1).stream_into(_Chunks(), pool=pool)
        # One replay task per device; the handshakes ran in the workers.
        assert pool.stats()["dispatches"] == len(names)
        assert sorted(key for _, key in pool._kept) == sorted(names)
        second = _Chunks()
        PassiveTraceGenerator(seed="second", scale=3).stream_into(second, pool=pool)
        assert pool.stats()["dispatches"] == len(names)
    assert connects == []

    monkeypatch.setattr(Device, "connect_destination", original)
    generator = PassiveTraceGenerator(Testbed(), seed="second", scale=3)
    for profile, chunk in zip(passive_devices(), second, strict=True):
        assert _columns(chunk) == _columns(generator.generate_device_chunk(profile))


def _stream(pool, seed: str, path: Path) -> bytes:
    from repro.analysis.export import JsonlStreamWriter

    with JsonlStreamWriter(path) as writer:
        PassiveTraceGenerator(scale=SCALE, seed=seed).stream_into(writer, pool=pool)
    return path.read_bytes()


def test_concurrent_cold_misses_keep_one_replay_per_device(tmp_path):
    """Two threads' first traces on one cold pool, as serve's two run
    executors may start them: both streams are the serial ones, and the
    pool keeps one replay, with one line per record, per device."""
    seeds = ["cold-a", "cold-b"]
    serial = [_stream(None, seed, tmp_path / f"serial-{seed}.jsonl") for seed in seeds]
    with WarmWorkerPool(2) as pool:
        threads = [
            threading.Thread(
                target=_stream, args=(pool, seed, tmp_path / f"pooled-{seed}.jsonl")
            )
            for seed in seeds
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(DEADLINE)
        assert not any(thread.is_alive() for thread in threads)
        replays = list(pool._kept.values())
        assert sorted(replay.device for replay in replays) == sorted(
            profile.name for profile in passive_devices()
        )
        for replay in replays:
            assert len(replay.line_pieces) == len(replay.columns["hostnames"])
    for seed, expected in zip(seeds, serial):
        pooled = (tmp_path / f"pooled-{seed}.jsonl").read_bytes()
        assert pooled == expected, f"{seed}: {first_difference(pooled, expected)}"


#: Bytes this process may keep more of after the warm misses below.
#: The store is full after the first miss, so later ones keep nothing
#: (measured: under 1 KiB); keeping each seed's counts would add ~32 KiB
#: per miss.
KEPT_GROWTH_BOUND = 64 * 1024


def test_warm_misses_keep_nothing_more(tmp_path):
    """Distinct-seed misses after warm-up leave the store at one replay
    per passive device, and this process's traced memory where it was."""
    import tracemalloc

    names = sorted(profile.name for profile in passive_devices())
    with WarmWorkerPool(2) as pool:
        _stream(pool, "warm-up", tmp_path / "warm-up.jsonl")
        tracemalloc.start()
        try:
            _stream(pool, "settle", tmp_path / "settle.jsonl")
            before = tracemalloc.get_traced_memory()[0]
            for index in range(3):
                _stream(pool, f"miss-{index}", tmp_path / f"miss-{index}.jsonl")
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sorted(key for _, key in pool._kept) == names
        assert pool.stats()["dispatches"] == len(names)
    assert growth < KEPT_GROWTH_BOUND, f"kept store grew {growth} bytes"


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

    def test_warm_trace_refuses_telemetry_without_dispatching(self, worker_pool):
        # A warm pooled trace dispatches nothing, and still refuses.
        pool = worker_pool(2)
        PassiveTraceGenerator(scale=1, seed="warm").stream_into(_Chunks(), pool=pool)
        dispatches = pool.stats()["dispatches"]
        telemetry.configure(enabled=True)
        with pytest.raises(ValueError, match="no telemetry"):
            PassiveTraceGenerator(scale=1, seed="warm-b").stream_into(_Chunks(), pool=pool)
        assert pool.stats()["dispatches"] == dispatches
