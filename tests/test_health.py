"""Run-health observability: resource sampling, progress heartbeats,
and the SLO-aware bench trajectory.

The acceptance criteria pinned here:

* run manifests stay byte-identical whether progress/heartbeat/resource
  sampling is on or off;
* tracemalloc activation is reference-counted and released on error
  paths without stopping a trace the sampler did not start.
"""

from __future__ import annotations

import json
import tracemalloc
from dataclasses import replace

import pytest

from repro import api, telemetry
from repro.cli import main
from repro.telemetry import (
    HEALTH_STREAM_SCHEMA,
    RESOURCE_SUMMARY_SCHEMA,
    SLO_SCHEMA,
    TREND_SCHEMA,
    HeartbeatWriter,
    ProgressReporter,
    ResourceSampler,
    SloPolicyError,
    Throttle,
    evaluate_slos,
    load_slo_policy,
    render_progress_line,
    tracemalloc_holds,
    trend_report,
)
from repro.telemetry.provenance import canonical_json
from repro.telemetry.schemas import check_contract


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
    def test_summary_shape(self, tmp_path):
        with ResourceSampler() as sampler:
            list(range(10_000))
        summary = sampler.summary()
        assert summary["schema"] == RESOURCE_SUMMARY_SCHEMA
        assert summary["peak_rss_kib"] > 0
        assert summary["peak_traced_bytes"] > 0
        assert summary["stages"][0]["stage"] == "start"
        assert summary["stages"][-1]["stage"] == "stop"
        # Both shapes meet the published contract: > 0 samples, and none.
        path = tmp_path / "resources.json"
        for document in (summary, ResourceSampler().summary()):
            path.write_text(json.dumps(document))
            assert check_contract(path, RESOURCE_SUMMARY_SCHEMA) == []

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
# Manifest parity: the tentpole acceptance criterion
# ----------------------------------------------------------------------
class TestManifestParity:
    """Progress/heartbeat/resource sampling never perturbs manifests."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_byte_identical_with_and_without_progress(self, tmp_path, workers, worker_pool):
        # In-process, the baseline carries telemetry because progress
        # implies it; a pooled run carries no telemetry, so there the
        # health layer is the heartbeat stream alone.  Either way the
        # comparison isolates the health layer itself.
        serial = workers == 1
        config = api.RunConfig(
            scale=1, seed="health-parity", telemetry=serial, ledger=None,
            pool=worker_pool(workers),
        )
        base = api.run_trace(config)
        withp = api.run_trace(
            replace(config, progress=serial, progress_stream=lambda line: None),
            heartbeat_path=tmp_path / "run.health.jsonl",
        )
        assert withp.health["done"] > 0
        assert canonical_json(withp.manifest) == canonical_json(base.manifest)

    def test_heartbeat_stream_written_and_valid(self, tmp_path, capsys):
        path = tmp_path / "run.health.jsonl"
        status = main(
            [
                "trace", "--scale", "1", "--heartbeat-out", str(path),
            ]
        )
        assert status == 0
        capsys.readouterr()
        assert check_contract(path, HEALTH_STREAM_SCHEMA) == []
        assert json.loads(path.read_text().splitlines()[-1])["done"] > 0

    @pytest.mark.parametrize("stream", [False, True], ids=["materialised", "stream"])
    def test_api_returns_health_summary(self, tmp_path, stream):
        result = api.run_trace(
            api.RunConfig(scale=1, progress=False, stream=stream),
            heartbeat_path=tmp_path / "h.jsonl",
        )
        assert result.health is not None
        # Progress advances by logical flow records, in both modes.
        assert result.health["done"] == result.analysis.flow_records
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
        out = tmp_path / "report.json"
        entries = [_entry("stream_trace", peak_mib=2.0)]
        assert self._trend(tmp_path, entries, "--slo", "tools/slo.json", "--json", str(out)) == 0
        document = json.loads(out.read_text())
        assert document["slo_verdicts"]
        assert check_contract(out, TREND_SCHEMA) == []
