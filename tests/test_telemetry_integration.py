"""Integration tests: telemetry wired through the pipeline and the CLI."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import api, telemetry
from repro.cli import main
from repro.longitudinal import PassiveTraceGenerator


@pytest.fixture()
def default_telemetry():
    """Enable the process-wide runtime for a test, then restore disabled."""
    runtime = telemetry.configure(enabled=True)
    yield runtime
    telemetry.configure(enabled=False)


class TestGeneratorTelemetry:
    def test_handshake_counts_match_capture(self, default_telemetry, testbed):
        capture = PassiveTraceGenerator(testbed, scale=2).generate()
        registry = default_telemetry.registry

        handshakes = registry.get("iotls_handshakes_total")
        assert handshakes.total() == len(capture.records)
        connections = registry.get("iotls_capture_connections_total")
        assert connections.total() == sum(record.count for record in capture.records)
        assert registry.get("iotls_trace_devices_total").total() == len(
            {record.device for record in capture.records}
        )

    def test_disabled_runtime_records_nothing(self, testbed):
        telemetry.configure(enabled=True)
        PassiveTraceGenerator(testbed, scale=1).generate()
        telemetry.configure(enabled=False)
        PassiveTraceGenerator(testbed, scale=1).generate()
        # Configuring drops the enabled run's registrations; a disabled
        # run declares none.
        registry = telemetry.get_registry()
        assert registry.get("iotls_handshakes_total") is None
        assert list(registry.metrics()) == []


class TestCliTelemetry:
    def test_trace_telemetry_snapshot(self, capsys, tmp_path):
        manifest_path = tmp_path / "m.json"
        assert (
            main(
                [
                    "trace",
                    "--scale",
                    "2",
                    "--telemetry",
                    "--manifest",
                    str(manifest_path),
                    "--no-ledger",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "telemetry summary:" in out
        assert "iotls_handshakes_total" in out

        # The manifest's per-state handshake counts must sum to the number
        # of handshake attempts actually performed -- which, for a trace
        # run, is exactly the flow-record count of an identical capture.
        counters = json.loads(manifest_path.read_text())["metrics"]["counters"]
        handshakes = counters["iotls_handshakes_total"]
        capture = PassiveTraceGenerator(scale=2).generate()
        assert sum(entry["value"] for entry in handshakes["series"]) == len(capture.records)
        assert handshakes["total"] == len(capture.records)
        weighted = counters["iotls_capture_connections_total"]["total"]
        assert weighted == sum(record.count for record in capture.records)
        telemetry.configure(enabled=False)

    def test_trace_seed_threaded_into_export(self, capsys, tmp_path):
        json_path = tmp_path / "trace.json"
        assert (
            main(["trace", "--scale", "1", "--seed", "custom-seed", "--json", str(json_path)])
            == 0
        )
        payload = json.loads(json_path.read_text())
        assert payload["metadata"]["seed"] == "custom-seed"
        assert payload["metadata"]["scale"] == 1
        assert payload["metadata"]["flow_records"] == len(payload["records"])

        from repro.analysis.export import capture_from_records

        capture = capture_from_records(payload)
        assert len(capture.records) == len(payload["records"])

    def test_trace_seed_changes_flow_counts(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for seed, path in zip(["seed-a", "seed-b"], paths):
            assert main(["trace", "--scale", "1", "--seed", seed, "--json", str(path)]) == 0
        first, second = (json.loads(path.read_text()) for path in paths)
        counts = lambda payload: [entry["count"] for entry in payload["records"]]
        assert counts(first) != counts(second)

    def test_default_run_leaves_telemetry_disabled(self, capsys):
        assert main(["devices"]) == 0
        assert not telemetry.enabled()
        assert "telemetry summary:" not in capsys.readouterr().out


class TestProbeTelemetry:
    def test_probe_iterations_counted(self, default_telemetry, testbed):
        from repro.core import RootStoreProber

        device = testbed.device("Wink Hub 2")
        report = RootStoreProber(testbed).probe_device(device)
        registry = default_telemetry.registry
        iterations = registry.get("iotls_probe_iterations_total")
        total_probes = len(report.common_results) + len(report.deprecated_results)
        assert iterations.total() == total_probes
        conclusive = iterations.value(outcome="present") + iterations.value(outcome="absent")
        assert conclusive == report.common_tally[1] + report.deprecated_tally[1]


#: The catalog's probe-amenable devices (the Table 9 rows).
_AMENABLE = (
    "Wink Hub 2",
    "LG TV",
    "Roku TV",
    "Google Home Mini",
    "Amazon Echo Plus",
    "Amazon Echo Dot",
    "Amazon Echo Dot 3",
    "Harman Invoke",
)


def _exported_bytes(command: str, on: bool, **fields) -> bytes:
    """One run's ``json_path`` export with telemetry switched ``on``/off."""
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.json"
            config = api.RunConfig(telemetry=on, ledger=None, **fields)
            api.execute(command, config, json_path=path)
            return path.read_bytes()
    finally:
        telemetry.configure(enabled=False)


class TestTelemetryInvariance:
    """Telemetry observes a run; switching it on never changes the result."""

    @given(
        seed=st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12),
        flow_cap=st.sampled_from([None, 1, 3, 50]),
        device=st.sampled_from(_AMENABLE),
    )
    @settings(max_examples=5, deadline=None)
    def test_exports_identical_with_telemetry_on_and_off(self, seed, flow_cap, device):
        trace = dict(scale=1, seed=seed, flow_cap=flow_cap)
        assert _exported_bytes("trace", True, **trace) == _exported_bytes(
            "trace", False, **trace
        )
        assert _exported_bytes("probe", True, device=device) == _exported_bytes(
            "probe", False, device=device
        )
