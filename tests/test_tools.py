"""Tests for repository tooling (docs generation, bench tools and their
run-ledger trajectory, the ``iotls runs trend`` gate, stream validators)."""

from __future__ import annotations

import importlib.util
import json
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import __version__
from repro.cli import main
from repro.telemetry import (
    append_entry,
    build_entry,
    host_date,
    host_fingerprint,
    load_ledger,
    render_trend_report,
    trend_report,
)
from repro.telemetry.provenance import config_digest
from repro.telemetry.schemas import LEDGER_SCHEMA, SLO_SCHEMA, check_contract

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_tool(name: str, *argv: str) -> int:
    module = _load_tool(name)
    original = sys.argv
    try:
        sys.argv = [f"{name}.py", *argv]
        return module.main()
    finally:
        sys.argv = original


@pytest.fixture(scope="module")
def stream_ledger(tmp_path_factory):
    """Two ``bench_stream`` runs (scale 1, then 2) into one fresh ledger."""
    path = tmp_path_factory.mktemp("bench") / "ledger.jsonl"
    for scale in ("1", "2"):
        argv = ("--scale", scale, "--skip-heap-probe", "--ledger", str(path))
        assert _run_tool("bench_stream", *argv) == 0
    return path


def _bench(seconds: float, benchmark: str = "b", **params) -> dict:
    """A bench ledger entry, as the bench tools write them."""
    return build_entry(
        "bench",
        kind="bench",
        params=params,
        seconds=seconds,
        extra={"benchmark": benchmark, "git_rev": "r"},
    )


def _summary(entries: list[dict], benchmark: str = "b") -> dict:
    return trend_report(entries)["benchmarks"][benchmark]


def _write_ledger(path: Path, entries: list[dict]) -> str:
    for entry in entries:
        append_entry(entry, path)
    return str(path)


def _load_generator():
    return _load_tool("generate_catalog_reference")


class TestCatalogReferenceGenerator:
    def test_renders_all_devices(self):
        text = _load_generator().render()
        from repro.devices import build_catalog

        for device in build_catalog():
            assert f"## {device.name}" in text

    def test_passive_only_marked(self):
        text = _load_generator().render()
        assert "## Samsung TV *(passive-only)*" in text
        assert "## LG TV\n" in text  # active, no marker

    def test_paper_facts_surface(self):
        text = _load_generator().render()
        assert "disabled after 3 failures" in text  # Yi Camera
        assert "not suitable for repeated reboots" in text  # appliances
        assert "TURKTRUST" in text  # LG TV's pinned root

    def test_checked_in_doc_is_current(self):
        """docs/catalog-reference.md must match the generator's output."""
        generated = _load_generator().render()
        checked_in = (REPO_ROOT / "docs" / "catalog-reference.md").read_text()
        assert checked_in == generated, (
            "docs/catalog-reference.md is stale; rerun "
            "tools/generate_catalog_reference.py"
        )


class TestBenchHistory:
    """The run ledger is the one bench history."""

    def test_append_and_load_roundtrip(self, stream_ledger):
        entries = load_ledger(stream_ledger)
        assert [e["benchmark"] for e in entries] == ["stream_trace"] * 2
        assert [e["params"]["scale"] for e in entries] == [1, 2]
        assert all(isinstance(e["seconds"], float) for e in entries)

    def test_load_skips_torn_lines(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps(_bench(1.0)) + '\n{"benchm')
        append_entry(_bench(1.1), path)
        assert main(["runs", "--ledger", str(path), "trend"]) == 0
        assert "b: 2 run(s)" in capsys.readouterr().out

    def test_missing_file_is_empty(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.jsonl")
        assert main(["runs", "--ledger", missing, "trend", "--slo", "tools/slo.json"]) == 0
        out = capsys.readouterr().out
        assert "(no benchmark entries)" in out
        assert "[skip] stream-throughput-floor" in out


class TestBenchGate:
    """The gate: ``trend_report`` ratios plus ``iotls runs trend --slo``."""

    def test_regression_flagged_above_threshold(self):
        report = trend_report([_bench(1.0), _bench(1.1), _bench(1.5)])
        assert report["benchmarks"]["b"]["latest_over_best"] == 1.5
        assert "REGRESSION (advisory)" in render_trend_report(report)

    def test_within_threshold_passes(self):
        report = trend_report([_bench(1.0), _bench(1.2)])
        assert report["benchmarks"]["b"]["latest_over_best"] == 1.2
        assert "REGRESSION" not in render_trend_report(report)

    def test_compares_against_best_prior_not_latest(self):
        # Best prior is 1.0 (first run), not the slow 2.0 in between.
        summary = _summary([_bench(1.0), _bench(2.0), _bench(1.4)])
        assert summary["best_seconds"] == 1.0
        assert summary["latest_over_best"] == 1.4

    def test_different_host_shape_not_compared(self):
        entries = [_bench(1.0), _bench(9.0)]
        entries[0]["host"] = {**entries[0]["host"], "cpu_count": 8}
        entries[1]["host"] = {**entries[1]["host"], "cpu_count": 1}
        assert _summary(entries)["latest_over_best"] == 1.0

    def test_fingerprint_mismatch_not_compared(self):
        entries = [_bench(1.0), _bench(9.0)]
        entries[0]["host"] = {"cpu_count": 4, "platform": "linux", "machine": "x86_64"}
        entries[1]["host"] = {"cpu_count": 4, "platform": "darwin", "machine": "arm64"}
        assert _summary(entries)["latest_over_best"] == 1.0

    def test_matching_fingerprint_compared(self):
        assert _summary([_bench(1.0), _bench(1.1)])["latest_over_best"] == 1.1

    def test_history_records_host_fingerprint(self, stream_ledger):
        for entry in load_ledger(stream_ledger):
            assert entry["host"] == host_fingerprint()

    def test_single_run_yields_no_verdict(self):
        report = trend_report([_bench(1.0)])
        assert report["benchmarks"]["b"]["latest_over_best"] == 1.0
        assert "REGRESSION" not in render_trend_report(report)

    def test_different_workload_shape_not_compared(self):
        # Two same-host stream_trace runs at scale 400 and 4000: each is
        # only ever measured against runs with its own config digest.
        small = _bench(1.0, "stream_trace", scale=400)
        big = _bench(9.0, "stream_trace", scale=4000)
        assert small["config_digest"] != big["config_digest"]
        assert _summary([small, big], "stream_trace")["latest_over_best"] == 1.0
        again = _bench(2.0, "stream_trace", scale=400)
        summary = _summary([small, big, again], "stream_trace")
        assert summary["best_seconds"] == 1.0
        assert summary["latest_over_best"] == 2.0

    def test_workers_and_flow_cap_must_match_too(self):
        for key, values in (("workers", (1, 2)), ("flow_cap", (50, None))):
            entries = [_bench(1.0, **{key: values[0]}), _bench(9.0, **{key: values[1]})]
            assert _summary(entries)["latest_over_best"] == 1.0, key

    def test_matching_shape_compared(self):
        shape = {"scale": 4000, "workers": 1, "flow_cap": 50}
        summary = _summary([_bench(1.0, **shape), _bench(1.1, **shape)])
        assert summary["latest_over_best"] == 1.1

    def test_regressions_warn_only_flag(self, tmp_path, capsys):
        # Wall-clock regressions are advisory: printed, never exit 1.
        ledger = _write_ledger(tmp_path / "l.jsonl", [_bench(1.0), _bench(1.6)])
        assert main(["runs", "--ledger", ledger, "trend", "--slo", "tools/slo.json"]) == 0
        assert "REGRESSION (advisory)" in capsys.readouterr().out

    def test_cli_exit_codes(self, tmp_path, capsys):
        # Without --slo nothing can fail the gate; the ratio is reported.
        ledger = _write_ledger(tmp_path / "l.jsonl", [_bench(1.0), _bench(1.6)])
        assert main(["runs", "--ledger", ledger, "trend"]) == 0
        assert "= 1.60x best" in capsys.readouterr().out


class TestBenchStreamSafeRate:
    def test_normal_rate(self):
        safe_rate = _load_tool("bench_stream").safe_rate
        assert safe_rate(1000, 2.0) == 500.0

    def test_zero_elapsed_clamps_finite(self):
        import math

        safe_rate = _load_tool("bench_stream").safe_rate
        rate = safe_rate(1000, 0.0)
        assert math.isfinite(rate) and rate > 0

    def test_negative_elapsed_clamps_finite(self):
        # A clock hiccup must not record a negative rate either.
        import math

        safe_rate = _load_tool("bench_stream").safe_rate
        rate = safe_rate(1000, -0.5)
        assert math.isfinite(rate) and rate > 0

    def test_zero_records_zero_rate(self):
        safe_rate = _load_tool("bench_stream").safe_rate
        assert safe_rate(0, 0.0) == 0.0


class TestBenchHistoryLedger:
    def test_entries_are_ledger_schema(self, stream_ledger):
        entry = load_ledger(stream_ledger)[0]
        assert entry["schema"] == "iotls-run-ledger/1"
        assert (entry["kind"], entry["status"]) == ("bench", "ok")
        # The workload shape lives in params, so the config digest names it.
        assert entry["params"] == {"scale": 1, "flow_cap": 50}
        assert entry["config_digest"] == config_digest("bench", entry["params"], __version__)
        assert isinstance(entry["git_rev"], str) and entry["git_rev"]
        assert entry["date"] == host_date()
        assert check_contract(stream_ledger, LEDGER_SCHEMA) == []

    def test_explicit_ledger_path_and_none(self, tmp_path, monkeypatch):
        # --ledger is the one destination: nothing else is written.
        monkeypatch.chdir(tmp_path)
        argv = ("--scale", "1", "--skip-heap-probe", "--ledger", "out/l.jsonl")
        assert _run_tool("bench_stream", *argv) == 0
        written = [p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file()]
        assert written == [Path("out/l.jsonl")]
        assert len(load_ledger(tmp_path / "out" / "l.jsonl")) == 1


class TestBenchClockBoundary:
    def test_host_date_is_the_clock_boundary(self):
        """Bench date stamps go through repro.telemetry.host_date (RL002)."""
        from datetime import date

        from repro.telemetry import host_date

        assert host_date() == date.today().isoformat()

    def test_bench_history_stamps_via_host_date(self, tmp_path, monkeypatch):
        import importlib.util
        import sys

        from repro.telemetry import host_date, load_ledger

        spec = importlib.util.spec_from_file_location(
            "bench_stream_lint_check", REPO_ROOT / "tools" / "bench_stream.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        path = tmp_path / "ledger.jsonl"
        monkeypatch.setattr(
            sys,
            "argv",
            ["bench_stream.py", "--scale", "1", "--skip-heap-probe", "--ledger", str(path)],
        )
        assert module.main() == 0
        (entry,) = load_ledger(path)
        assert entry["date"] == host_date()


class TestBenchGateLegacyTag:
    def test_legacy_tagged_entries_never_baseline(self):
        # A pre-ledger row (no host, no config digest) is never a
        # baseline for a bench tool's entry.
        legacy = {"benchmark": "b", "seconds": 1.0, "host_cpu_count": 4, "legacy": True}
        assert _summary([legacy, _bench(9.0)])["latest_over_best"] == 1.0


class TestValidateStreams:
    def _ledger_entry(self, **overrides):
        from repro.telemetry import ledger

        return ledger.build_entry(
            overrides.pop("command", "trace"), params={"scale": 1}, **overrides
        )

    def test_valid_ledger_passes(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps(self._ledger_entry()) + "\n")
        assert check_contract(path, LEDGER_SCHEMA) == []

    def test_ledger_violations_reported(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"schema": "wrong/1", "kind": "nope"}\nnot json\n')
        errors = check_contract(path, LEDGER_SCHEMA)
        assert any("schema" in error for error in errors)
        assert any("not valid JSON" in error for error in errors)

    def test_rows_without_host_rejected(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        row = _bench(1.0)
        del row["host"]
        row["legacy"] = True
        path.write_text(json.dumps(row) + "\n")
        assert any("'host'" in e for e in check_contract(path, LEDGER_SCHEMA))

    def test_error_entries_need_typed_error(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        entry = self._ledger_entry(status="error")
        path.write_text(json.dumps(entry) + "\n")
        errors = check_contract(path, LEDGER_SCHEMA)
        assert any("'error' object" in error for error in errors)

    def test_schema_autodetection(self, tmp_path):
        streams = _load_tool("validate_streams")
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps(self._ledger_entry()) + "\n")
        assert streams.detect_schema(path) == LEDGER_SCHEMA
        unknown = tmp_path / "other.txt"
        unknown.write_text("hello\n")
        assert streams.detect_schema(unknown) is None

    def test_slo_policy_uses_the_gate_loader(self, tmp_path):
        assert check_contract(REPO_ROOT / "tools" / "slo.json", SLO_SCHEMA) == []
        path = tmp_path / "slo.json"
        for document in ([], {"schema": "iotls-slo/1", "slos": [1]}):
            path.write_text(json.dumps(document))
            (error,) = check_contract(path, SLO_SCHEMA)
            assert "object" in error

class TestApiSurfaceDiff:
    """``tools/api_surface.py --check`` diffs every gated ``__all__``."""

    def test_good_surface_in_sync(self):
        tool = _load_tool("api_surface")
        surface = tool.build_surface()
        assert tool._diff(surface, surface) == []

    def test_bad_symbol_missing_from_baseline(self):
        tool = _load_tool("api_surface")
        baseline = tool.build_surface()
        current = json.loads(json.dumps(baseline))
        current["modules"]["repro.serve"].append("new_thing")
        assert tool._diff(baseline, current) == ["repro.serve: added 'new_thing'"]


class TestServeSmokeWaitHealthy:
    """``tools/serve_smoke.py`` gives up on a server that has exited."""

    def test_exited_server_fails_at_once(self):
        tool = _load_tool("serve_smoke")
        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        server = subprocess.Popen([sys.executable, "-c", "raise SystemExit(2)"])
        started = time.monotonic()
        try:
            assert not tool.wait_healthy(f"http://127.0.0.1:{port}", server, started + 60)
        finally:
            server.wait()
        assert time.monotonic() - started < 5
        assert server.returncode == 2
