"""Run-health observability: resource sampling, progress heartbeats,
cross-worker span stitching, and the SLO-aware bench trajectory.

The acceptance criteria pinned here:

* run manifests stay byte-identical across ``--workers 1/2/4`` whether
  progress/heartbeat/resource sampling is on or off;
* worker spans re-parent under the coordinator's ``parallel.dispatch``
  span, in any merge order;
* tracemalloc activation is reference-counted and released on error
  paths without stopping a trace the sampler did not start.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro import api, telemetry
from repro.cli import main
from repro.telemetry import (
    HEALTH_STREAM_SCHEMA,
    RESOURCE_SUMMARY_SCHEMA,
    SLO_SCHEMA,
    HeartbeatWriter,
    ProgressReporter,
    Profiler,
    ResourceSampler,
    SloPolicyError,
    Throttle,
    TraceContext,
    evaluate_slos,
    load_slo_policy,
    render_progress_line,
    tracemalloc_holds,
    trend_report,
)
from repro.telemetry import TelemetryRuntime
from repro.testbed import ProgressSink


@pytest.fixture(autouse=True)
def telemetry_disabled():
    telemetry.configure(enabled=False)
    yield
    telemetry.configure(enabled=False)


class FakeClock:
    """A manually-advanced clock so rate/ETA math is exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Throttle
# ----------------------------------------------------------------------
class TestThrottle:
    def test_first_call_always_passes(self):
        clock = FakeClock()
        throttle = Throttle(10.0, clock=clock)
        assert throttle.ready() is True

    def test_suppresses_within_interval(self):
        clock = FakeClock()
        throttle = Throttle(1.0, clock=clock)
        assert throttle.ready()
        clock.tick(0.5)
        assert not throttle.ready()
        clock.tick(0.6)
        assert throttle.ready()
        assert not throttle.ready()

    def test_reset_restores_first_call(self):
        clock = FakeClock()
        throttle = Throttle(1.0, clock=clock)
        assert throttle.ready()
        throttle.reset()
        assert throttle.ready()


# ----------------------------------------------------------------------
# HeartbeatWriter: the iotls-health-stream/1 contract
# ----------------------------------------------------------------------
class TestHeartbeatWriter:
    def _records(self, path):
        return [json.loads(line) for line in path.read_text().splitlines() if line]

    def test_stream_shape(self, tmp_path):
        path = tmp_path / "run.health.jsonl"
        writer = HeartbeatWriter(path, metadata={"label": "t"})
        writer.heartbeat({"done": 1})
        writer.heartbeat({"done": 2})
        writer.close(summary={"done": 2})
        records = self._records(path)
        assert [r["kind"] for r in records] == [
            "header",
            "heartbeat",
            "heartbeat",
            "summary",
        ]
        assert records[0]["schema"] == HEALTH_STREAM_SCHEMA
        assert records[0]["metadata"] == {"label": "t"}

    def test_seq_strictly_monotonic_from_one(self, tmp_path):
        path = tmp_path / "h.jsonl"
        writer = HeartbeatWriter(path)
        for done in range(5):
            writer.heartbeat({"done": done})
        writer.close(summary={"done": 4})
        seqs = [r["seq"] for r in self._records(path) if r["kind"] == "heartbeat"]
        assert seqs == [1, 2, 3, 4, 5]

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "h.jsonl"
        writer = HeartbeatWriter(path)
        writer.heartbeat({"done": 1})
        writer.close(summary={"done": 1})
        writer.close(summary={"done": 99})
        summaries = [r for r in self._records(path) if r["kind"] == "summary"]
        assert len(summaries) == 1
        assert summaries[0]["done"] == 1


# ----------------------------------------------------------------------
# ProgressReporter
# ----------------------------------------------------------------------
class TestProgressReporter:
    def test_rates_and_eta_with_fake_clock(self):
        clock = FakeClock()
        # A huge throttle interval: only the first advance emits, so the
        # explicit snapshot below owns the whole rate window after it.
        reporter = ProgressReporter(
            label="gen",
            total=100,
            interval=1000.0,
            throttle=Throttle(1000.0, clock=clock),
            clock=clock,
        )
        reporter.advance(10)  # first-call-passes heartbeat at t=0
        clock.tick(1.0)
        reporter.advance(10, stage="trace.device")
        entry = reporter.snapshot(reason="test")
        assert entry["done"] == 20
        # 10 units in the 1s window since the t=0 emission.
        assert entry["rate"] == pytest.approx(10.0, abs=0.5)
        assert entry["stages"] == {"trace.device": 1}
        assert entry["eta_seconds"] is not None

    def test_throttle_limits_emissions(self):
        clock = FakeClock()
        lines: list[str] = []
        reporter = ProgressReporter(
            label="gen",
            interval=1.0,
            throttle=Throttle(1.0, clock=clock),
            stream=lines.append,
            clock=clock,
        )
        for _ in range(100):
            reporter.advance(1)
        assert len(lines) == 1  # only the first call passed the throttle
        clock.tick(1.5)
        reporter.advance(1)
        assert len(lines) == 2

    def test_finish_emits_summary_and_is_idempotent(self, tmp_path):
        path = tmp_path / "h.jsonl"
        reporter = ProgressReporter(
            label="gen", interval=0.0, heartbeat=HeartbeatWriter(path)
        )
        reporter.advance(3, stage="s")
        reporter.finish()
        reporter.finish()
        assert reporter.summary["done"] == 3
        assert reporter.summary["stages"] == {"s": 1}
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert sum(1 for r in records if r["kind"] == "summary") == 1

    def test_render_progress_line(self):
        line = render_progress_line(
            {
                "label": "trace",
                "done": 1234,
                "rate": 100.0,
                "ewma_rate": 90.0,
                "eta_seconds": 12.0,
                "stages": {"trace.device": 7},
            }
        )
        assert "progress[trace]" in line
        assert "1,234 done" in line
        assert "trace.device=7" in line

    def test_short_run_still_produces_a_heartbeat(self, tmp_path):
        # The Throttle's first-call-passes rule: even a run far shorter
        # than the interval leaves evidence in the stream.
        path = tmp_path / "h.jsonl"
        reporter = ProgressReporter(
            label="gen", interval=3600.0, heartbeat=HeartbeatWriter(path)
        )
        reporter.advance(1)
        reporter.finish()
        kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
        assert kinds.count("heartbeat") >= 1


# ----------------------------------------------------------------------
# ResourceSampler: reference-counted tracemalloc
# ----------------------------------------------------------------------
class TestResourceSampler:
    def test_summary_shape(self):
        with ResourceSampler() as sampler:
            list(range(10_000))
        summary = sampler.summary()
        assert summary["schema"] == RESOURCE_SUMMARY_SCHEMA
        assert summary["peak_rss_kib"] > 0
        assert summary["peak_traced_bytes"] > 0
        assert summary["stages"][0]["stage"] == "start"
        assert summary["stages"][-1]["stage"] == "stop"

    def test_hold_released_after_stop(self):
        assert tracemalloc_holds() == 0
        sampler = ResourceSampler().start()
        assert tracemalloc_holds() == 1
        assert tracemalloc.is_tracing()
        sampler.stop()
        assert tracemalloc_holds() == 0
        assert not tracemalloc.is_tracing()

    def test_nested_samplers_share_one_activation(self):
        outer = ResourceSampler().start()
        inner = ResourceSampler().start()
        assert tracemalloc_holds() == 2
        inner.stop()
        assert tracemalloc.is_tracing()  # outer's hold keeps it alive
        outer.stop()
        assert not tracemalloc.is_tracing()

    def test_error_path_releases_hold(self):
        with pytest.raises(RuntimeError):
            with ResourceSampler():
                raise RuntimeError("boom")
        assert tracemalloc_holds() == 0
        assert not tracemalloc.is_tracing()

    def test_does_not_stop_tracing_it_did_not_start(self):
        tracemalloc.start()
        try:
            with ResourceSampler():
                pass
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_stop_is_idempotent(self):
        sampler = ResourceSampler().start()
        sampler.stop()
        sampler.stop()
        assert tracemalloc_holds() == 0

    def test_gauges_folded_into_registry(self):
        runtime = telemetry.configure(enabled=True)
        with ResourceSampler(registry=runtime.registry):
            pass
        assert runtime.registry.get("iotls_resource_peak_rss_kib") is not None
        assert runtime.registry.get("iotls_resource_cpu_seconds") is not None


# ----------------------------------------------------------------------
# ProgressSink: record-level progress on streaming paths
# ----------------------------------------------------------------------
class TestProgressSink:
    def test_batches_advances(self):
        advances: list[int] = []

        class Spy:
            def advance(self, n, **kwargs):
                advances.append(n)

        sink = ProgressSink(Spy(), batch=10)
        for _ in range(25):
            sink.add(object())  # the sink only counts; record content is opaque
        sink.flush()
        assert advances == [10, 10, 5]
        assert sink.records_seen == 25

    def test_revocation_events_not_counted(self):
        class Spy:
            def advance(self, n, **kwargs):
                raise AssertionError("revocation events must not advance progress")

        sink = ProgressSink(Spy(), batch=10)
        assert sink.add_revocation_event(object()) is None
        assert sink.records_seen == 0


# ----------------------------------------------------------------------
# Cross-worker span stitching
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_derive_is_deterministic(self):
        a = TraceContext.derive("trace", "seed", 2, parent_path="x;y")
        b = TraceContext.derive("trace", "seed", 2, parent_path="x;y")
        assert a == b
        assert a.parent_path == "x;y"
        assert len(a.run_id) == 16  # blake2s digest_size=8, hex

    def test_derive_varies_with_parts(self):
        assert (
            TraceContext.derive("trace", 1).run_id
            != TraceContext.derive("trace", 2).run_id
        )

    def test_propagation_context_snapshots_open_path(self):
        runtime = telemetry.configure(enabled=True)
        with runtime.tracer.span("outer"):
            with runtime.tracer.span("dispatch"):
                context = runtime.tracer.propagation_context("seed")
        assert context.parent_path == "outer;dispatch"

    def test_disabled_tracer_yields_none(self):
        runtime = telemetry.get()
        assert runtime.tracer.propagation_context("seed") is None


class TestSpanStitching:
    def _parallel_profile(self) -> Profiler:
        from repro.longitudinal import PassiveTraceGenerator

        telemetry.configure(enabled=True)
        PassiveTraceGenerator(scale=1, seed="stitch").generate(workers=2)
        return Profiler.from_runtime(telemetry.get())

    def test_worker_spans_reparent_under_dispatch(self):
        profiler = self._parallel_profile()
        paths = {stat.path for stat in profiler.paths()}
        assert "trace.generate;parallel.dispatch" in paths
        assert "trace.generate;parallel.dispatch;chunk.run" in paths
        assert "trace.generate;parallel.dispatch;chunk.run;trace.device" in paths

    def test_shard_skew_attributed(self):
        profiler = self._parallel_profile()
        skew = profiler.shard_skew()
        assert skew is not None
        assert skew["workers"] == 2
        assert skew["max_over_mean"] >= 1.0
        assert skew["slowest_worker"] in (0, 1)

    def test_shard_skew_attributed_streaming(self):
        """Skew is per pool process, not per chunk task, when streaming."""
        from repro.longitudinal import PassiveTraceGenerator
        from repro.testbed.capture import DiscardSink

        telemetry.configure(enabled=True)
        PassiveTraceGenerator(scale=1, seed="stitch").stream_into(
            DiscardSink(), workers=2
        )
        skew = Profiler.from_runtime(telemetry.get()).shard_skew()
        assert skew is not None
        assert skew["workers"] == 2
        assert skew["max_over_mean"] >= 1.0
        assert skew["slowest_worker"] in (0, 1)

    def test_merge_is_order_independent(self):
        """Satellite: out-of-order worker merges produce identical trees."""
        runtime = telemetry.configure(enabled=True)
        with runtime.tracer.span("run"):
            with runtime.tracer.span("parallel.dispatch"):
                context = runtime.tracer.propagation_context("seed")

        def worker_payload(worker: int) -> dict:
            worker_runtime = TelemetryRuntime(enabled=True)
            with worker_runtime.tracer.span("shard.run", worker=worker):
                with worker_runtime.tracer.span("trace.device", device=f"d{worker}"):
                    worker_runtime.registry.counter("test_units_total").inc(worker + 1)
            return worker_runtime.export_worker_state(worker, context=context)

        payloads = [worker_payload(0), worker_payload(1), worker_payload(2)]

        def stitched(order):
            runtime_n = TelemetryRuntime(enabled=True)
            runtime_n.merge_worker_states([payloads[i] for i in order])
            profiler = Profiler.from_runtime(runtime_n)
            tree = sorted((stat.path, stat.calls) for stat in profiler.paths())
            shards = sorted(profiler.shards.items())
            total = runtime_n.registry.get("test_units_total").total()
            return tree, shards, total

        forward = stitched([0, 1, 2])
        reversed_ = stitched([2, 1, 0])
        shuffled = stitched([1, 2, 0])
        assert forward == reversed_ == shuffled
        paths = [path for path, _ in forward[0]]
        assert "run;parallel.dispatch;shard.run;trace.device" in paths
        assert forward[2] == 6  # 1 + 2 + 3: counters add across workers


# ----------------------------------------------------------------------
# Manifest parity: the tentpole acceptance criterion
# ----------------------------------------------------------------------
class TestManifestParity:
    """Progress/heartbeat/resource sampling never perturbs manifests."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_byte_identical_with_and_without_progress(self, tmp_path, workers, capsys):
        # Baseline uses --telemetry because --progress implies telemetry;
        # the comparison isolates the health layer itself.
        base = tmp_path / f"base{workers}"
        status = main(
            [
                "trace", "--scale", "1", "--seed", "health-parity",
                "--workers", str(workers), "--telemetry",
                "--manifest", str(base / "manifest.json"),
            ]
        )
        assert status == 0
        withp = tmp_path / f"progress{workers}"
        status = main(
            [
                "trace", "--scale", "1", "--seed", "health-parity",
                "--workers", str(workers), "--progress",
                "--heartbeat-out", str(withp / "run.health.jsonl"),
                "--manifest", str(withp / "manifest.json"),
            ]
        )
        assert status == 0
        capsys.readouterr()
        assert (
            (base / "manifest.json").read_bytes()
            == (withp / "manifest.json").read_bytes()
        )

    def test_heartbeat_stream_written_and_valid(self, tmp_path, capsys):
        path = tmp_path / "run.health.jsonl"
        status = main(
            [
                "trace", "--scale", "1", "--workers", "2",
                "--heartbeat-out", str(path),
            ]
        )
        assert status == 0
        capsys.readouterr()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["kind"] == "header"
        assert records[0]["schema"] == HEALTH_STREAM_SCHEMA
        kinds = [r["kind"] for r in records]
        assert kinds.count("heartbeat") >= 1
        assert kinds[-1] == "summary"
        assert records[-1]["done"] > 0

    def test_api_returns_health_summary(self, tmp_path):
        result = api.run_trace(
            api.RunConfig(scale=1, progress=False),
            heartbeat_path=tmp_path / "h.jsonl",
        )
        assert result.health is not None
        assert result.health["done"] == len(result.capture.records)
        assert result.health["resources"]["peak_rss_kib"] > 0

    def test_health_none_without_progress(self):
        result = api.run_trace(api.RunConfig(scale=1))
        assert result.health is None


# ----------------------------------------------------------------------
# SLOs and the bench trajectory
# ----------------------------------------------------------------------
def _entry(benchmark: str, **metrics) -> dict:
    entry = {"benchmark": benchmark, "seconds": 1.0, "git_rev": "abc", "date": "d"}
    entry.update(metrics)
    return entry


class TestSloPolicy:
    def test_committed_policy_loads(self):
        slos = load_slo_policy("tools/slo.json")
        assert all(slo.level in ("advisory", "blocking") for slo in slos)
        assert any(slo.level == "blocking" for slo in slos)

    @pytest.mark.parametrize(
        "document",
        [
            {"schema": "wrong/1", "slos": []},
            {"schema": SLO_SCHEMA, "slos": []},
            {"schema": SLO_SCHEMA, "slos": [{"name": "x"}]},
            {
                "schema": SLO_SCHEMA,
                "slos": [
                    {
                        "name": "x", "benchmark": "b", "metric": "m",
                        "op": "~=", "threshold": 1,
                    }
                ],
            },
            {
                "schema": SLO_SCHEMA,
                "slos": [
                    {
                        "name": "x", "benchmark": "b", "metric": "m",
                        "op": "<=", "threshold": "fast",
                    }
                ],
            },
            [],
            {"schema": SLO_SCHEMA, "slos": [1]},
        ],
    )
    def test_bad_policies_rejected(self, tmp_path, document):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(document))
        with pytest.raises(SloPolicyError):
            load_slo_policy(path)

    def test_evaluation_pass_fail_skip(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(
            json.dumps(
                {
                    "schema": SLO_SCHEMA,
                    "slos": [
                        {
                            "name": "ceiling", "benchmark": "b", "metric": "m",
                            "op": "<=", "threshold": 10, "level": "blocking",
                        },
                        {
                            "name": "floor", "benchmark": "b", "metric": "m",
                            "op": ">=", "threshold": 100, "level": "advisory",
                        },
                        {
                            "name": "absent", "benchmark": "b", "metric": "nope",
                            "op": "<=", "threshold": 1,
                        },
                    ],
                }
            )
        )
        verdicts = evaluate_slos([_entry("b", m=5)], load_slo_policy(path))
        by_name = {v["slo"]: v for v in verdicts}
        assert by_name["ceiling"]["status"] == "pass"
        assert by_name["floor"]["status"] == "fail"
        assert by_name["floor"]["blocking"] is False
        assert by_name["absent"]["status"] == "skip"

    def test_latest_entry_wins(self):
        slos = load_slo_policy("tools/slo.json")
        entries = [
            _entry("stream_trace", peak_mib=1000.0),
            _entry("stream_trace", peak_mib=2.0),
        ]
        verdicts = evaluate_slos(entries, slos)
        heap = next(v for v in verdicts if v["slo"] == "stream-heap-ceiling")
        assert heap["status"] == "pass"
        assert heap["value"] == 2.0

    def test_trend_report_shape(self):
        entries = [
            _entry("b", seconds=2.0, records_per_second=50.0),
            _entry("b", seconds=1.0, records_per_second=99.0),
        ]
        for i, entry in enumerate(entries):
            entry["seconds"] = 2.0 - i
        report = trend_report(entries)
        assert report["benchmarks"]["b"]["runs"] == 2
        assert report["benchmarks"]["b"]["latest_metrics"]["records_per_second"] == 99.0


class TestBenchReportCli:
    """The bench report and gate: ``iotls runs trend --ledger L --slo P``."""

    def _trend(self, tmp_path, entries, *argv) -> int:
        ledger = tmp_path / "ledger.jsonl"
        for entry in entries:
            telemetry.append_entry(entry, ledger)
        return main(["runs", "--ledger", str(ledger), "trend", *argv])

    def test_ok_exit_zero(self, tmp_path, capsys):
        entries = [_entry("stream_trace", peak_mib=2.0)]
        assert self._trend(tmp_path, entries, "--slo", "tools/slo.json") == 0
        assert "stream-heap-ceiling" in capsys.readouterr().out

    def test_blocking_failure_exit_one(self, tmp_path, capsys):
        entries = [_entry("stream_trace", peak_mib=9000.0)]
        assert self._trend(tmp_path, entries, "--slo", "tools/slo.json") == 1

    def test_advisory_failure_exit_zero(self, tmp_path, capsys):
        # peak_rss_kib above its ceiling fails only the advisory RSS SLO.
        entries = [_entry("stream_trace", peak_mib=2.0, peak_rss_kib=3 * 1024 * 1024)]
        assert self._trend(tmp_path, entries, "--slo", "tools/slo.json") == 0
        assert "[FAIL] stream-rss-ceiling (advisory)" in capsys.readouterr().out

    def test_throughput_floor_is_blocking(self, tmp_path, capsys):
        # The streaming records/s floor gates for real: a collapsed
        # throughput reading must fail the gate, not just warn.
        entries = [_entry("stream_trace", peak_mib=2.0, records_per_second=1.0)]
        assert self._trend(tmp_path, entries, "--slo", "tools/slo.json") == 1

    def test_bad_policy_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text in ("{}", "[]", json.dumps({"schema": SLO_SCHEMA, "slos": [1]})):
            bad.write_text(text)
            assert self._trend(tmp_path, [_entry("b")], "--slo", str(bad)) == 2, text
            assert "bad SLO policy" in capsys.readouterr().err

    def test_json_export(self, tmp_path, capsys):
        import importlib.util
        from pathlib import Path

        out = tmp_path / "report.json"
        entries = [_entry("stream_trace", peak_mib=2.0)]
        assert self._trend(tmp_path, entries, "--slo", "tools/slo.json", "--json", str(out)) == 0
        document = json.loads(out.read_text())
        assert document["slo_verdicts"]
        tool = Path(__file__).resolve().parents[1] / "tools" / "validate_streams.py"
        spec = importlib.util.spec_from_file_location("validate_streams", tool)
        streams = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(streams)
        assert streams.validate_bench_trend(out) == []
