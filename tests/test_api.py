"""The ``repro.api`` run facade: typed configs, results, and errors.

These tests pin the facade's contract: the CLI is a thin wrapper, so
everything a subcommand can do must be reachable (and typed) here --
including the failure modes the CLI renders as exit codes.
"""

from __future__ import annotations

import json

import pytest

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
from repro.analysis import export as analysis_export


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.configure(enabled=False)
    yield
    telemetry.configure(enabled=False)


class TestRunTrace:
    def test_streaming_and_materialised_agree(self):
        config = RunConfig(scale=1, seed="api-parity", telemetry=True)
        materialised = run_trace(config)
        streamed = run_trace(RunConfig(scale=1, seed="api-parity", telemetry=True, stream=True))
        assert materialised.manifest_digest == streamed.manifest_digest
        assert materialised.capture is not None
        assert streamed.capture is None
        assert streamed.analysis.flow_records == materialised.analysis.flow_records
        assert streamed.analysis.connections == materialised.analysis.connections
        assert (
            streamed.analysis.adoption_events == materialised.analysis.adoption_events
        )

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
            run_probe("Nonexistent Toaster")
        assert excinfo.value.device == "Nonexistent Toaster"
        assert isinstance(excinfo.value, RunError)

    def test_non_rebootable_device(self):
        with pytest.raises(DeviceNotProbeableError) as excinfo:
            run_probe("Samsung Fridge")
        assert "reboot" in excinfo.value.reason

    def test_passive_only_device(self):
        with pytest.raises(DeviceNotProbeableError) as excinfo:
            run_probe("Samsung TV")
        assert "passive-only" in excinfo.value.reason

    def test_amenable_device_writes_json(self, tmp_path):
        json_path = tmp_path / "probe.json"
        result = run_probe("Wink Hub 2", json_path=json_path)
        assert result.amenable
        assert result.artifacts["probe_json"] == json_path
        assert json.loads(json_path.read_text())["device"] == "Wink Hub 2"

    def test_non_amenable_device_skips_json(self, tmp_path):
        json_path = tmp_path / "probe.json"
        result = run_probe("Apple TV", json_path=json_path)
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
        result = run_pcap(RunConfig(scale=1), out=tmp_path / "trace.pcap", limit=10)
        assert result.packets_written == 10
        assert result.path.exists()
        assert result.size_bytes == result.path.stat().st_size


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

    def test_execute_matches_wrapper(self, tmp_path):
        from repro import api

        config = RunConfig(scale=1, seed="registry-parity", ledger=None)
        via_registry = api.execute("trace", config)
        via_wrapper = run_trace(config)
        assert via_registry.manifest_digest == via_wrapper.manifest_digest

    def test_execute_rejects_unknown_extras(self):
        from repro import api

        with pytest.raises(TypeError, match="unexpected keyword"):
            api.execute("trace", RunConfig(ledger=None), bogus_path="x")

    def test_probe_wrapper_fills_request_device(self):
        from repro import api

        result = api.execute(
            "probe", RunConfig(device="Google Home Mini", ledger=None)
        )
        wrapped = run_probe("Google Home Mini", RunConfig(ledger=None))
        assert result.device == wrapped.device
        assert result.amenable == wrapped.amenable

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
    """RunRequest (serializable) + ExecutionOptions (host-local)."""

    def test_document_round_trip(self):
        from repro.api import RunRequest

        request = RunRequest(
            scale=3, seed="wire", flow_cap=7, device="LG TV", limit=5
        )
        assert RunRequest.from_document(request.to_document()) == request
        assert RunRequest.from_document(RunRequest().to_document()) == RunRequest()

    def test_document_omits_unset_optionals(self):
        from repro.api import RunRequest

        document = RunRequest(scale=2, seed="wire").to_document()
        assert document == {
            "scale": 2,
            "seed": "wire",
            "include_passthrough": True,
        }

    def test_from_document_rejects_unknown_fields(self):
        from repro.api import RunRequest

        with pytest.raises(ValueError, match="unknown run-request field"):
            RunRequest.from_document({"scale": 1, "workers": 4})

    def test_from_document_rejects_mistyped_fields(self):
        from repro.api import RunRequest

        with pytest.raises(ValueError, match="'scale' must be"):
            RunRequest.from_document({"scale": "big"})
        with pytest.raises(ValueError, match="must be an integer"):
            RunRequest.from_document({"scale": True})
        with pytest.raises(ValueError, match="must be a JSON object"):
            RunRequest.from_document(["scale", 1])

    def test_config_splits_and_merges_losslessly(self):
        from repro.api import ExecutionOptions, RunConfig

        config = RunConfig(
            scale=5,
            seed="split",
            workers=3,
            flow_cap=9,
            ledger=None,
            device="LG TV",
            limit=2,
        )
        assert RunConfig.merge(config.request, config.options) == config
        assert config.options == ExecutionOptions(workers=3, ledger=None)

    def test_request_digest_matches_recorded_config_digest(self, tmp_path):
        """The wire request hashes to exactly what a real run records."""
        from repro import api, telemetry

        ledger = tmp_path / "ledger.jsonl"
        config = RunConfig(scale=1, seed="digest-parity", ledger=ledger)
        run_trace(config)
        (entry,) = telemetry.load_ledger(ledger)
        assert entry["config_digest"] == api.request_digest(
            "trace", config.request
        )
        # A request rebuilt from its own wire document hashes the same.
        rebuilt = api.RunRequest.from_document(config.request.to_document())
        assert api.request_digest("trace", rebuilt) == entry["config_digest"]
