"""The ``repro.api`` run facade: typed configs, results, and errors.

These tests pin the facade's contract: the CLI is a thin wrapper, so
everything a subcommand can do must be reachable (and typed) here --
including the failure modes the CLI renders as exit codes.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import telemetry
from repro.api import (
    DeviceNotProbeableError,
    RunConfig,
    RunError,
    UnknownDeviceError,
    run_audit,
    run_pcap,
    run_probe,
    run_trace,
)
from repro.analysis import analyze_capture, measure_analysis, measure_capture
from repro.analysis import export as analysis_export


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.configure(enabled=False)
    yield
    telemetry.configure(enabled=False)


class TestRunTrace:
    @given(
        seed=st.text("abcxyz0123", min_size=1, max_size=6),
        flow_cap=st.sampled_from([None, 1, 5]),
    )
    @example(seed="api-parity", flow_cap=None)
    @settings(max_examples=8, deadline=None)
    def test_streaming_and_materialised_agree(self, seed, flow_cap):
        """Both modes equal each other and the per-record reference fold."""
        config = RunConfig(scale=1, seed=seed, flow_cap=flow_cap, telemetry=True)
        materialised = run_trace(config)
        streamed = run_trace(replace(config, stream=True))
        assert materialised.manifest_digest == streamed.manifest_digest
        assert materialised.capture is not None
        assert streamed.capture is None
        measured = measure_analysis(materialised.analysis)
        assert measure_analysis(streamed.analysis) == measured
        assert measure_capture(materialised.capture) == measured
        reference = analyze_capture(materialised.capture)
        for result in (materialised, streamed):
            assert result.analysis.flow_records == reference.flow_records
            assert result.analysis.connections == reference.connections
            assert result.analysis.adoption_events == reference.adoption_events

    def test_rejects_streaming_json_document(self, tmp_path):
        with pytest.raises(ValueError):
            run_trace(RunConfig(stream=True), json_path=tmp_path / "trace.json")

    def test_stream_path_writes_jsonl_artifact(self, tmp_path):
        result = run_trace(
            RunConfig(scale=1), stream_path=tmp_path / "trace.jsonl"
        )
        path = result.artifacts["records_jsonl"]
        assert path.exists()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["metadata"]["generator"] == "iotls trace"
        assert result.analysis.dataset.device_count == 40

    def test_materialised_json_artifact(self, tmp_path):
        result = run_trace(RunConfig(scale=1), json_path=tmp_path / "trace.json")
        payload = json.loads(result.artifacts["records_json"].read_text())
        assert payload["metadata"]["flow_records"] == result.analysis.flow_records
        assert len(payload["records"]) == result.analysis.flow_records


class TestRunProbe:
    def test_unknown_device(self):
        with pytest.raises(UnknownDeviceError) as excinfo:
            run_probe(RunConfig(device="Nonexistent Toaster"))
        assert excinfo.value.device == "Nonexistent Toaster"
        assert isinstance(excinfo.value, RunError)

    def test_non_rebootable_device(self):
        with pytest.raises(DeviceNotProbeableError) as excinfo:
            run_probe(RunConfig(device="Samsung Fridge"))
        assert "reboot" in excinfo.value.reason

    def test_passive_only_device(self):
        with pytest.raises(DeviceNotProbeableError) as excinfo:
            run_probe(RunConfig(device="Samsung TV"))
        assert "passive-only" in excinfo.value.reason

    def test_amenable_device_writes_json(self, tmp_path):
        json_path = tmp_path / "probe.json"
        result = run_probe(RunConfig(device="Wink Hub 2"), json_path=json_path)
        assert result.amenable
        assert result.artifacts["probe_json"] == json_path
        assert json.loads(json_path.read_text())["device"] == "Wink Hub 2"

    def test_non_amenable_device_skips_json(self, tmp_path):
        json_path = tmp_path / "probe.json"
        result = run_probe(RunConfig(device="Apple TV"), json_path=json_path)
        assert not result.amenable
        assert result.artifacts == {}
        assert not json_path.exists()


class TestRunAudit:
    def test_headline_counts_and_manifest(self, tmp_path):
        json_path = tmp_path / "audit.json"
        result = run_audit(
            RunConfig(include_passthrough=False), json_path=json_path
        )
        assert result.results.vulnerable_device_count == 11
        assert len(result.results.amenable_probe_reports) == 8
        assert result.manifest["config"]["params"] == {"include_passthrough": False}
        assert len(result.manifest_digest) == 32
        payload = json.loads(json_path.read_text())
        assert payload["summary"]["vulnerable_devices"] == 11


class TestRunPcap:
    def test_pcap_export(self, tmp_path):
        result = run_pcap(RunConfig(scale=1, limit=10), out=tmp_path / "trace.pcap")
        assert result.packets_written == 10
        assert result.path.exists()
        assert result.size_bytes == result.path.stat().st_size


class TestSeedlessCommands:
    """``report`` and ``pcap`` digest no seed, so they must not read one:
    a seed would change the artifact behind an unchanged config digest."""

    @pytest.mark.parametrize("command,out", [("report", "r.md"), ("pcap", "x.pcap")])
    def test_seed_leaves_the_manifest_unchanged(self, tmp_path, command, out):
        from repro.api import execute

        digests = {
            seed: execute(
                command, RunConfig(scale=1, seed=seed, ledger=None), out=tmp_path / out
            ).manifest_digest
            for seed in ("iotls-passive", "x")
        }
        assert digests["x"] == digests["iotls-passive"]


class TestRemovedExportAliases:
    """The PR-4 deprecation cycle is complete: the aliases are gone."""

    @pytest.mark.parametrize("name", ["campaign_to_dict", "probe_report_to_dict"])
    def test_to_dict_aliases_removed(self, name):
        import repro.analysis

        assert not hasattr(analysis_export, name)
        assert name not in analysis_export.__all__
        assert name not in repro.analysis.__all__
        with pytest.raises(AttributeError):
            getattr(repro.analysis, name)

    def test_document_names_remain(self, campaign_results):
        document = analysis_export.campaign_to_document(campaign_results)
        assert document["summary"]["vulnerable_devices"] == 11
        probe = analysis_export.probe_report_to_document(campaign_results.probes[0])
        assert probe["device"] == campaign_results.probes[0].device


class TestCommandRegistry:
    """The dispatchable surface: execute() and the CommandSpec table."""

    def test_registry_names_every_run_command(self):
        from repro import api

        assert api.command_names() == (
            "audit",
            "check",
            "pcap",
            "probe",
            "report",
            "trace",
        )

    def test_unknown_command_is_a_typed_run_error(self):
        from repro import api

        with pytest.raises(api.UnknownCommandError) as excinfo:
            api.execute("frobnicate")
        assert isinstance(excinfo.value, RunError)
        assert excinfo.value.command == "frobnicate"

    def test_execute_dispatches_to_the_registered_runner(self):
        """Each ``run_*`` function is its command's one entry point, and
        its keyword-only parameters are the command's extras."""
        from repro import api

        for name in api.command_names():
            assert api.command_spec(name).runner is getattr(api, f"run_{name}")
        assert api.command_spec("trace").extras == {"json_path", "stream_path"}
        assert api.command_spec("report").extras == {"out", "progress"}
        config = RunConfig(scale=1, seed="registry-parity", ledger=None)
        assert api.execute("trace", config).manifest_digest == run_trace(config).manifest_digest

    def test_execute_rejects_unknown_extras(self):
        from repro import api

        with pytest.raises(TypeError, match="unexpected keyword"):
            api.execute("trace", RunConfig(ledger=None), bogus_path="x")

    def test_probe_reads_its_device_from_the_config(self):
        from repro import api

        config = RunConfig(device="Google Home Mini", ledger=None)
        result = api.execute("probe", config)
        assert result.device == run_probe(config).device == "Google Home Mini"
        with pytest.raises(ValueError, match="RunConfig.device"):
            run_probe(RunConfig(ledger=None))

    def test_stream_role_marks_trace_only(self):
        from repro import api

        assert api.command_spec("trace").stream_role == "records_jsonl"
        for name in ("audit", "probe", "report", "pcap", "check"):
            assert api.command_spec(name).stream_role is None

    def test_probe_and_check_are_not_cacheable(self):
        from repro import api

        assert not api.command_spec("probe").cacheable
        assert not api.command_spec("check").cacheable
        assert api.command_spec("trace").cacheable


class TestRunRequestSplit:
    """A run request on the wire is :meth:`RunConfig.from_document`:
    the six wire fields, and never a host-local one."""

    def test_from_document_sets_only_the_wire_fields(self):
        document = {
            "scale": 3,
            "seed": "wire",
            "flow_cap": 7,
            "include_passthrough": False,
            "device": "LG TV",
            "limit": 5,
        }
        assert RunConfig.from_document(document) == RunConfig(**document)
        assert RunConfig.from_document({}) == RunConfig()

    def test_from_document_rejects_unknown_fields(self):
        # The host-local fields are unknown on the wire: a tenant sets
        # none of them.
        for key, value in [
            ("workers", 4),
            ("telemetry", True),
            ("stream", True),
            ("ledger", "elsewhere.jsonl"),
            ("pool", None),
        ]:
            with pytest.raises(ValueError, match=f"unknown run-request field.*{key}"):
                RunConfig.from_document({"scale": 1, key: value})

    def test_from_document_rejects_mistyped_fields(self):
        with pytest.raises(ValueError, match="'scale' must be"):
            RunConfig.from_document({"scale": "big"})
        with pytest.raises(ValueError, match="must be an integer"):
            RunConfig.from_document({"scale": True})
        with pytest.raises(ValueError, match="must be a JSON object"):
            RunConfig.from_document(["scale", 1])

    def test_worker_count_is_not_a_run_option(self):
        """Parallelism is a resident pool handed in as ``pool=``; a worker
        count is not a field of the config."""
        with pytest.raises(TypeError):
            RunConfig(workers=2)
        assert RunConfig().pool is None

    def test_request_digest_matches_recorded_config_digest(self, tmp_path):
        """The wire request hashes to exactly what a real run records."""
        from repro import api, telemetry

        ledger = tmp_path / "ledger.jsonl"
        config = RunConfig(scale=1, seed="digest-parity", ledger=ledger)
        run_trace(config)
        (entry,) = telemetry.load_ledger(ledger)
        assert entry["config_digest"] == api.request_digest("trace", config)
        # The same request parsed from the wire hashes the same: no
        # host-local field reaches the digest.
        rebuilt = RunConfig.from_document({"scale": 1, "seed": "digest-parity"})
        assert api.request_digest("trace", rebuilt) == entry["config_digest"]


class TestTelemetryIsPerRun:
    """Each run sets the telemetry runtime to its own config, zeroed."""

    def test_plain_run_after_a_telemetry_run_matches_a_fresh_process(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro import api

        config = RunConfig(scale=1, ledger=None)
        src = Path(api.__file__).resolve().parents[1]
        fresh = subprocess.run(
            [sys.executable, "-c",
             "from repro import api; print(api.execute('trace', "
             "api.RunConfig(scale=1, ledger=None)).manifest_digest)"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        api.execute("trace", replace(config, telemetry=True))
        after = api.execute("trace", config)
        assert after.manifest_digest == fresh
        assert after.manifest["metrics"]["counters"] == {}
        assert not telemetry.enabled()
