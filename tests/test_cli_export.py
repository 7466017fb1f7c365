"""Tests for the CLI and the JSON export layer."""

from __future__ import annotations

import json

import pytest

from repro.analysis.export import (
    campaign_to_document,
    capture_to_records,
    probe_report_to_document,
    write_json,
)
from repro.cli import build_parser, main


class TestExport:
    def test_capture_records_roundtrip_json(self, passive_capture, tmp_path):
        records = capture_to_records(passive_capture)
        assert len(records) == len(passive_capture)
        path = write_json(records[:50], tmp_path / "capture.json")
        loaded = json.loads(path.read_text())
        assert loaded[0]["device"]
        assert isinstance(loaded[0]["count"], int)
        assert loaded[0]["advertised_max_version"].startswith(("TLS", "SSL"))

    def test_campaign_dict_structure(self, campaign_results):
        payload = campaign_to_document(campaign_results)
        assert payload["summary"]["vulnerable_devices"] == 11
        assert len(payload["interception"]) == 32
        assert len(payload["probes"]) == len(campaign_results.probes)
        assert {entry["device"] for entry in payload["interception"] if entry["vulnerable"]} == {
            report.device for report in campaign_results.interception if report.vulnerable
        }
        json.dumps(payload)  # must be serialisable

    def test_probe_report_dict_amenable_and_not(self, campaign_results):
        amenable = campaign_results.amenable_probe_reports[0]
        payload = probe_report_to_document(amenable)
        assert payload["amenable"]
        assert payload["common"]["conclusive"] > 0

        not_amenable = next(
            report for report in campaign_results.probes if not report.calibration.amenable
        )
        payload = probe_report_to_document(not_amenable)
        assert not payload["amenable"]
        assert payload["reason"]

    def test_write_json_creates_parents(self, tmp_path):
        path = write_json({"x": 1}, tmp_path / "deep" / "nested" / "out.json")
        assert path.exists()
        assert json.loads(path.read_text()) == {"x": 1}


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_devices_lists_catalog(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "Zmodo Doorbell" in out
        assert "Cameras (n = 7)" in out

    def test_amenability_prints_table4(self, capsys):
        assert main(["amenability"]) == 0
        out = capsys.readouterr().out
        assert "Decrypt Error" in out
        assert "No Alert" in out

    def test_probe_known_device(self, capsys, tmp_path):
        json_path = tmp_path / "probe.json"
        assert main(["probe", "Wink Hub 2", "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "Wink Hub 2: common" in out
        payload = json.loads(json_path.read_text())
        assert payload["device"] == "Wink Hub 2"
        assert payload["amenable"]

    def test_probe_non_amenable_device_exit_code(self, capsys):
        assert main(["probe", "Apple TV"]) == 1
        assert "not amenable" in capsys.readouterr().out

    def test_probe_unknown_device(self, capsys):
        assert main(["probe", "Nonexistent Toaster"]) == 2
        assert "unknown device" in capsys.readouterr().err

    def test_probe_rejects_non_rebootable(self, capsys):
        assert main(["probe", "Samsung Fridge"]) == 2
        assert "reboot" in capsys.readouterr().err

    def test_probe_rejects_passive_only(self, capsys):
        assert main(["probe", "Samsung TV"]) == 2
        assert "passive-only" in capsys.readouterr().err

    def test_trace_summary(self, capsys):
        assert main(["trace", "--scale", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1: 12 devices shown" in out
        assert "Table 8: CRL 1, OCSP 3, stapling 12" in out

    def test_fingerprint_summary(self, capsys):
        assert main(["fingerprint"]) == 0
        out = capsys.readouterr().out
        assert "19 devices share a fingerprint" in out
        assert "cluster:" in out

    def test_pcap_command(self, capsys, tmp_path):
        out_path = tmp_path / "trace.pcap"
        assert main(["pcap", "--out", str(out_path), "--scale", "1", "--limit", "10"]) == 0
        assert out_path.exists()
        import struct

        magic = struct.unpack("!I", out_path.read_bytes()[:4])[0]
        assert magic == 0xA1B2C3D4

    def test_audit_summary(self, capsys, tmp_path):
        json_path = tmp_path / "audit.json"
        assert main(["audit", "--no-passthrough", "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "11 vulnerable" in out
        assert "8 probe-amenable" in out
        payload = json.loads(json_path.read_text())
        assert payload["summary"]["vulnerable_devices"] == 11


class _Dispatched(Exception):
    """Raised by the recording ``execute`` so no run actually happens."""


#: One argv per run subcommand and the ``api.execute`` call it must make.
#: Together they use every run flag at least once.  Each case is
#: ``(argv, command, RunConfig keywords, extras)`` with ``{tmp}`` standing
#: for the test's scratch directory.
_DISPATCH_CASES = [
    (
        ["audit", "--no-passthrough", "--json", "{tmp}/audit.json",
         "--ledger", "{tmp}/ledger.jsonl"],
        "audit",
        dict(include_passthrough=False, ledger="{tmp}/ledger.jsonl"),
        dict(json_path="{tmp}/audit.json"),
    ),
    (
        ["probe", "Wink Hub 2", "--telemetry", "--json", "{tmp}/probe.json",
         "--no-ledger"],
        "probe",
        dict(device="Wink Hub 2", telemetry=True, ledger=None),
        dict(json_path="{tmp}/probe.json"),
    ),
    (
        ["trace", "--scale", "3", "--seed", "s", "--flow-cap", "5", "--stream",
         "--stream-out", "{tmp}/t.jsonl", "--metrics-out", "{tmp}/m.json",
         "--manifest", "{tmp}/man.json", "--profile", "--profile-out",
         "{tmp}/p.json"],
        "trace",
        dict(scale=3, seed="s", flow_cap=5, stream=True, telemetry=True),
        dict(stream_path="{tmp}/t.jsonl"),
    ),
    (
        ["report", "--scale", "2", "--out", "{tmp}/r.md", "--no-ledger"],
        "report",
        dict(scale=2, ledger=None),
        dict(out="{tmp}/r.md", progress=print),
    ),
    (
        ["pcap", "--scale", "1", "--limit", "7", "--out", "{tmp}/x.pcap",
         "--manifest", "{tmp}/man.json"],
        "pcap",
        dict(scale=1, limit=7),
        dict(out="{tmp}/x.pcap"),
    ),
    (
        ["check", "--scale", "2", "--seed", "s", "--expected", "{tmp}/e.json",
         "--json", "{tmp}/d.json", "--ledger", "{tmp}/ledger.jsonl"],
        "check",
        dict(scale=2, seed="s", ledger="{tmp}/ledger.jsonl"),
        dict(expected_path="{tmp}/e.json"),
    ),
    (
        ["check", "--artifact", "{tmp}/t.jsonl", "--expected", "{tmp}/e.json",
         "--no-ledger"],
        "check",
        dict(scale=1, ledger=None),
        dict(artifact_path="{tmp}/t.jsonl", expected_path="{tmp}/e.json"),
    ),
]


class TestCLIDispatch:
    """Characterization of the argv -> ``api.execute`` mapping.

    ``repro.api.execute`` is replaced by a recorder that raises before
    any work happens.  Extras passed as ``None`` equal the runner's
    default, so they are dropped before comparing; telemetry counts as
    on when either the config asks for it or the CLI already switched
    the runtime on.
    """

    @pytest.fixture()
    def recorder(self, monkeypatch):
        from repro import api, telemetry

        calls = []

        def record(command, config=api.RunConfig(), **extras):
            calls.append((command, config, extras, telemetry.enabled()))
            raise _Dispatched

        telemetry.disable()
        monkeypatch.setattr(api, "execute", record)
        yield calls
        telemetry.disable()

    @staticmethod
    def _fill(value, tmp):
        return value.replace("{tmp}", str(tmp)) if isinstance(value, str) else value

    @pytest.mark.parametrize(
        "argv,command,fields,extras",
        _DISPATCH_CASES,
        ids=[" ".join(case[0][:2]) for case in _DISPATCH_CASES],
    )
    def test_argv_reaches_execute(self, recorder, tmp_path, argv, command, fields, extras):
        from dataclasses import replace

        from repro.api import RunConfig

        with pytest.raises(_Dispatched):
            main([self._fill(arg, tmp_path) for arg in argv])
        [(seen_command, config, seen_extras, telemetry_on)] = recorder
        assert seen_command == command
        config = replace(config, telemetry=config.telemetry or telemetry_on)
        assert config == RunConfig(
            **{key: self._fill(value, tmp_path) for key, value in fields.items()}
        )
        assert {key: value for key, value in seen_extras.items() if value is not None} == {
            key: self._fill(value, tmp_path) for key, value in extras.items()
        }


class TestOneShotCommandsRunSerially:
    """Only ``iotls serve`` holds a worker pool; one-shot commands have
    no ``--workers`` flag, so argparse rejects it with exit 2."""

    @pytest.mark.parametrize("command", ["trace", "audit", "report", "pcap", "check"])
    def test_workers_flag_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_serve_keeps_its_pool_size(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--workers", "2"])
        assert args.workers == 2

    def test_serve_rejects_an_empty_pool(self, tmp_path, capsys):
        # Refused by ServeConfig, before the access log opens: no
        # header-only log is left behind.
        argv = ["serve", "--port", "0", "--workers", "0", "--ledger",
                str(tmp_path / "l.jsonl"), "--artifact-dir", str(tmp_path / "a"),
                "--access-log", str(tmp_path / "access.jsonl")]
        assert main(argv) == 2
        assert "error: workers must be >= 1, got 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--executors", "0", "executors must be >= 1"),
            ("--workers", "0", "workers must be >= 1"),
            ("--queue-size", "0", "queue_size must be >= 1"),
            ("--heartbeat-interval", "0", "heartbeat_interval must be finite and > 0"),
            ("--retry-after", "-1", "retry_after must be >= 0"),
        ],
    )
    def test_serve_rejects_a_config_that_hangs_or_disables_it(
        self, tmp_path, capsys, flag, value, message
    ):
        # ServeConfig refuses at construction: no server ever starts.
        argv = ["serve", "--port", "0", flag, value, "--ledger",
                str(tmp_path / "l.jsonl"), "--artifact-dir", str(tmp_path / "a")]
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["trace", "audit", "report"])
    @pytest.mark.parametrize(
        "flags",
        [["--progress"], ["--heartbeat-out", "h.jsonl"], ["--heartbeat-interval", "0.5"]],
        ids=["progress", "heartbeat-out", "heartbeat-interval"],
    )
    def test_run_health_flags_are_usage_errors(self, command, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, *flags])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    def test_serve_keeps_its_heartbeat_interval(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--heartbeat-interval", "0.5"])
        assert args.heartbeat_interval == 0.5


class TestCLIUsageErrors:
    """A ``ValueError`` from a run is a usage error: ``error: ...``, exit 2,
    and nothing is recorded."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["pcap", "--limit", "-1", "--out", "{tmp}/x.pcap"], "limit must be >= 0"),
            (["trace", "--flow-cap", "0"], "flow_cap must be >= 1"),
            (["trace", "--stream", "--json", "{tmp}/t.json"], "streaming runs export JSONL"),
            (["trace", "--scale", "0"], "scale must be >= 1"),
            (
                ["trace", "--scale", "0", "--metrics-out", "{tmp}/m.json"],
                "scale must be >= 1",
            ),
            (["pcap", "--scale", "-1", "--out", "{tmp}/x.pcap"], "scale must be >= 1"),
        ],
        ids=[
            "pcap-negative-limit",
            "trace-zero-flow-cap",
            "trace-stream-json",
            "trace-zero-scale",
            "trace-zero-scale-metrics-out",
            "pcap-negative-scale",
        ],
    )
    def test_value_error_exits_2(self, capsys, tmp_path, argv, message):
        ledger = tmp_path / "ledger.jsonl"
        command, *flags = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        # The default scale goes first so that a case's own --scale wins.
        assert main([command, "--scale", "1", *flags, "--ledger", str(ledger)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
