"""The SLO gate over the run ledger's bench entries.

``iotls runs trend --slo tools/slo.json`` is the one benchmark gate:
the policy loads strictly, each SLO reads the newest entry that carries
its metric, and the exit code is 0 (pass or advisory failure), 1 (a
blocking SLO failed) or 2 (a bad policy).
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.telemetry import (
    SLO_SCHEMA,
    SloPolicyError,
    evaluate_slos,
    load_slo_policy,
    trend_report,
)


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
