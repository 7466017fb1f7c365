"""The run ledger: append boundary, run_* wiring, and `iotls runs`.

The ledger is observability, never provenance: the tests here pin both
halves of that contract -- every ``run_*`` invocation (success and
typed failure alike) appends exactly one valid ``iotls-run-ledger/1``
entry, and manifests stay byte-identical whether the ledger is on or
off and whatever pool the run shards onto.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    RunConfig,
    UnknownDeviceError,
    command_spec,
    request_digest,
    run_probe,
    run_trace,
)
from repro.cli import main
from repro.telemetry import ledger
from repro.telemetry.provenance import config_digest
from repro.telemetry.schemas import check_contract


@pytest.fixture
def ledger_path(tmp_path):
    return tmp_path / "ledger.jsonl"


def trace_config(ledger_path, **kwargs):
    return RunConfig(scale=1, seed="ledger-test", ledger=ledger_path, **kwargs)


class TestAppendBoundary:
    def test_append_and_load_roundtrip(self, ledger_path):
        entry = ledger.build_entry("trace", params={"scale": 1}, seconds=1.23456)
        ledger.append_entry(entry, ledger_path)
        loaded = ledger.load_ledger(ledger_path)
        assert loaded == [entry]
        assert loaded[0]["schema"] == ledger.LEDGER_SCHEMA
        assert loaded[0]["seconds"] == 1.2346
        assert set(loaded[0]["host"]) == {"cpu_count", "platform", "machine"}

    def test_entries_are_single_lines(self, ledger_path):
        for index in range(3):
            ledger.append_entry(
                ledger.build_entry("trace", params={"run": index}), ledger_path
            )
        lines = [line for line in ledger_path.read_text().splitlines() if line]
        assert len(lines) == 3
        assert all(json.loads(line)["command"] == "trace" for line in lines)

    def test_corrupt_trailing_line_is_tolerated(self, ledger_path):
        ledger.append_entry(ledger.build_entry("trace"), ledger_path)
        with open(ledger_path, "a") as handle:
            handle.write('{"torn": ')  # simulated partial write / crash
        loaded = ledger.load_ledger(ledger_path)
        assert len(loaded) == 1
        # And the boundary keeps appending cleanly after the torn line.
        ledger.append_entry(ledger.build_entry("audit"), ledger_path)
        assert [e["command"] for e in ledger.load_ledger(ledger_path)] == [
            "trace",
            "audit",
        ]

    def test_missing_ledger_loads_empty(self, tmp_path):
        assert ledger.load_ledger(tmp_path / "absent.jsonl") == []

    def test_error_entries_carry_typed_error(self, ledger_path):
        entry = ledger.build_entry(
            "probe",
            params={"device": "Toaster"},
            status="error",
            error=UnknownDeviceError("unknown device: Toaster"),
        )
        assert entry["status"] == "error"
        assert entry["error"]["type"] == "UnknownDeviceError"
        assert "Toaster" in entry["error"]["message"]

    def test_config_digest_is_stable_across_entries(self):
        one = ledger.build_entry("trace", params={"scale": 1})
        two = ledger.build_entry("trace", params={"scale": 1})
        other = ledger.build_entry("trace", params={"scale": 2})
        assert one["config_digest"] == two["config_digest"]
        assert one["config_digest"] != other["config_digest"]


class TestDamagedLedgers:
    """A damaged ledger loses only its damaged lines, never the file."""

    def test_non_utf8_line_is_skipped(self, ledger_path):
        ledger.append_entry(ledger.build_entry("trace"), ledger_path)
        with open(ledger_path, "ab") as handle:
            handle.write(b'{"command": "\xff"}\n')
        ledger.append_entry(ledger.build_entry("audit"), ledger_path)
        assert [e["command"] for e in ledger.load_ledger(ledger_path)] == [
            "trace",
            "audit",
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        params=st.lists(
            st.dictionaries(st.text(max_size=6), st.integers() | st.text(max_size=6),
                            max_size=3),
            max_size=5,
        ),
        cut=st.floats(min_value=0.0, max_value=1.0),
        garbage=st.none() | st.binary(max_size=24).map(
            lambda tail: b"\xff" + tail.replace(b"\n", b"")
        ),
    )
    def test_truncated_ledger_loads_a_prefix(self, params, cut, garbage):
        entries = [ledger.build_entry("trace", params=p, seconds=0.5) for p in params]
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "ledger.jsonl"
            for entry in entries:
                ledger.append_entry(entry, path)
            raw = path.read_bytes() if entries else b""
            kept = raw[: round(len(raw) * cut)]
            path.write_bytes(kept + (garbage or b""))

            loaded = ledger.load_ledger(path)
            assert loaded == entries[: len(loaded)]
            assert len(loaded) >= kept.count(b"\n")

            fresh = ledger.build_entry("audit", params={"after": "damage"})
            ledger.append_entry(fresh, path)
            reloaded = ledger.load_ledger(path)
            assert reloaded[-1] == fresh
            assert reloaded[:-1] == entries[: len(reloaded) - 1]


class TestRunWiring:
    def test_each_run_appends_exactly_one_entry(self, ledger_path):
        run_trace(trace_config(ledger_path))
        run_trace(trace_config(ledger_path))
        entries = ledger.load_ledger(ledger_path)
        assert len(entries) == 2
        assert all(e["status"] == "ok" and e["kind"] == "run" for e in entries)
        assert entries[0]["config_digest"] == entries[1]["config_digest"]
        assert entries[0]["manifest_digest"] == entries[1]["manifest_digest"]

    def test_run_entry_matches_result_manifest(self, ledger_path):
        result = run_trace(trace_config(ledger_path))
        (entry,) = ledger.load_ledger(ledger_path)
        assert entry["manifest_digest"] == result.manifest_digest
        assert entry["command"] == "trace"
        assert entry["params"]["scale"] == 1
        assert entry["workers"] == 1
        assert isinstance(entry["seconds"], float)

    def test_failed_probe_appends_error_entry(self, ledger_path):
        with pytest.raises(UnknownDeviceError):
            run_probe(RunConfig(device="Nonexistent Toaster", ledger=ledger_path))
        (entry,) = ledger.load_ledger(ledger_path)
        assert entry["status"] == "error"
        assert entry["command"] == "probe"
        assert entry["error"]["type"] == "UnknownDeviceError"
        assert entry["params"]["device"] == "Nonexistent Toaster"

    def test_ledger_none_disables_recording(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_trace(RunConfig(scale=1, seed="ledger-test", ledger=None))
        assert not (tmp_path / ledger.DEFAULT_LEDGER_PATH).exists()

    def test_default_path_is_dot_iotls(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_trace(RunConfig(scale=1, seed="ledger-test"))
        entries = ledger.load_ledger(tmp_path / ledger.DEFAULT_LEDGER_PATH)
        assert len(entries) == 1

    def test_json_artifact_recorded_with_digest(self, ledger_path, tmp_path):
        json_path = tmp_path / "trace.json"
        run_trace(trace_config(ledger_path), json_path=json_path)
        (entry,) = ledger.load_ledger(ledger_path)
        artifact = entry["artifacts"]["records_json"]
        assert Path(artifact["path"]) == json_path.resolve()
        assert artifact["bytes"] == json_path.stat().st_size

    def test_manifest_parity_across_workers_and_ledger(self, ledger_path, worker_pool):
        """The acceptance bar: manifests are byte-identical across
        pools of 1/2/4 workers x ledger on/off."""
        digests = set()
        for workers in (1, 2, 4):
            for path in (ledger_path, None):
                config = trace_config(ledger_path=path, pool=worker_pool(workers))
                digests.add(run_trace(config).manifest_digest)
        assert len(digests) == 1
        # Ledgered runs recorded that same digest, and nothing else.
        entries = ledger.load_ledger(ledger_path)
        assert {e["manifest_digest"] for e in entries} == digests
        assert len(entries) == 3


class TestQueries:
    def _seed_entries(self):
        ok = ledger.build_entry(
            "trace",
            params={"scale": 1, "device": "LG TV"},
            manifest_digest="aaaa1111bbbb2222",
        )
        err = ledger.build_entry(
            "probe",
            params={"device": "Yi Camera"},
            status="error",
            error=UnknownDeviceError("nope"),
        )
        bench = ledger.build_entry(
            "bench",
            kind="bench",
            seconds=2.0,
            extra={"benchmark": "stream_trace", "git_rev": "abc1234"},
        )
        return [ok, err, bench]

    def test_filter_by_status_kind_and_device(self):
        entries = self._seed_entries()
        assert len(ledger.filter_entries(entries, status="error")) == 1
        assert len(ledger.filter_entries(entries, kind="bench")) == 1
        assert len(ledger.filter_entries(entries, device="Yi Camera")) == 1
        assert len(ledger.filter_entries(entries, command="trace")) == 1
        assert len(ledger.filter_entries(entries)) == 3

    def test_find_entry_by_digest_prefix(self):
        entries = self._seed_entries()
        found = ledger.find_entry(entries, "aaaa")
        assert found is not None and found["command"] == "trace"
        assert ledger.find_entry(entries, "ffff") is None

    def test_lookup_config_wants_ok_runs_with_manifests(self):
        entries = self._seed_entries()
        digest = entries[0]["config_digest"]
        assert ledger.lookup_config(entries, digest) is entries[0]
        # The error entry's config digest never satisfies a cache probe.
        assert ledger.lookup_config(entries, entries[1]["config_digest"]) is None

    def test_diff_entries_identical_runs(self):
        a = ledger.build_entry("trace", params={"scale": 1}, manifest_digest="aa")
        b = ledger.build_entry("trace", params={"scale": 1}, manifest_digest="aa")
        diff = ledger.diff_entries(a, b)
        assert diff["manifest_match"] and diff["config_match"]
        assert not diff["drift"]
        assert diff["metrics_delta"] == {}

    def test_diff_entries_detects_drift(self):
        a = ledger.build_entry("trace", params={"scale": 1}, manifest_digest="aa")
        b = ledger.build_entry("trace", params={"scale": 2}, manifest_digest="bb")
        diff = ledger.diff_entries(a, b)
        assert diff["drift"]
        assert not diff["config_match"]
        assert diff["params_delta"] == {"scale": {"a": 1, "b": 2}}

    def test_gc_prunes_only_missing_artifacts(self, tmp_path):
        alive = tmp_path / "alive.json"
        alive.write_text("{}")
        gone = tmp_path / "gone.json"
        gone.write_text("{}")
        keep = ledger.build_entry("trace", artifacts={"json": alive})
        stale = ledger.build_entry("trace", artifacts={"json": gone})
        gone.unlink()
        bare = ledger.build_entry("audit")
        kept, pruned = ledger.gc_entries([keep, stale, bare])
        assert kept == [keep, bare]
        assert pruned == [stale]

    def test_trend_groups_bench_entries_by_host(self):
        entries = self._seed_entries()
        report = ledger.ledger_trend(entries)
        assert report["entries"] == 1  # only the bench entry counts
        assert "stream_trace" in report["benchmarks"]
        (host,) = report["hosts"].values()
        assert host["series"]["stream_trace"][-1]["seconds"] == 2.0
        assert host["benchmarks"]["stream_trace"]["runs"] == 1


class TestRunsCli:
    @pytest.fixture
    def traced_ledger(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        for _ in range(2):
            assert (
                main(
                    [
                        "trace",
                        "--scale",
                        "1",
                        "--seed",
                        "runs-cli",
                        "--ledger",
                        str(path),
                    ]
                )
                == 0
            )
        return path

    def test_list_shows_every_entry(self, traced_ledger, capsys):
        assert main(["runs", "--ledger", str(traced_ledger), "list"]) == 0
        out = capsys.readouterr().out
        assert out.count("trace") >= 2
        assert "ok" in out

    def test_list_filters(self, traced_ledger, capsys):
        assert (
            main(
                ["runs", "--ledger", str(traced_ledger), "list", "--status", "error"]
            )
            == 0
        )
        assert "trace" not in capsys.readouterr().out

    def test_diff_identical_runs_exits_zero(self, traced_ledger, capsys):
        assert main(["runs", "--ledger", str(traced_ledger), "diff"]) == 0
        assert "zero manifest delta" in capsys.readouterr().out

    def test_diff_unknown_digest_exits_two(self, traced_ledger):
        assert (
            main(["runs", "--ledger", str(traced_ledger), "diff", "ffff", "eeee"])
            == 2
        )

    def test_diff_drifted_runs_exits_one(self, traced_ledger, capsys):
        assert (
            main(
                [
                    "trace",
                    "--scale",
                    "1",
                    "--seed",
                    "runs-cli-other",
                    "--ledger",
                    str(traced_ledger),
                ]
            )
            == 0
        )
        entries = ledger.load_ledger(traced_ledger)
        assert (
            main(
                [
                    "runs",
                    "--ledger",
                    str(traced_ledger),
                    "diff",
                    entries[0]["manifest_digest"],
                    entries[-1]["manifest_digest"],
                ]
            )
            == 1
        )

    def test_show_by_digest_prefix(self, traced_ledger, capsys):
        digest = ledger.load_ledger(traced_ledger)[0]["manifest_digest"]
        assert main(["runs", "--ledger", str(traced_ledger), "show", digest[:8]]) == 0
        assert digest in capsys.readouterr().out
        assert main(["runs", "--ledger", str(traced_ledger), "show", "ffff"]) == 1

    def test_lookup_hit_and_miss(self, traced_ledger, capsys):
        entry = ledger.load_ledger(traced_ledger)[0]
        assert (
            main(
                [
                    "runs",
                    "--ledger",
                    str(traced_ledger),
                    "lookup",
                    entry["config_digest"],
                ]
            )
            == 0
        )
        assert entry["manifest_digest"] in capsys.readouterr().out
        assert main(["runs", "--ledger", str(traced_ledger), "lookup", "ffff"]) == 1

    def test_gc_dry_run_leaves_file_alone(self, traced_ledger):
        before = traced_ledger.read_text()
        assert main(["runs", "--ledger", str(traced_ledger), "gc", "--dry-run"]) == 0
        assert traced_ledger.read_text() == before

    def test_trend_runs_on_bench_free_ledger(self, traced_ledger):
        assert main(["runs", "--ledger", str(traced_ledger), "trend"]) == 0

    def test_missing_ledger_is_usage_error_for_show(self, tmp_path):
        absent = str(tmp_path / "absent.jsonl")
        assert main(["runs", "--ledger", absent, "show", "aaaa"]) == 2
        assert main(["runs", "--ledger", absent, "list"]) == 0

    def test_no_ledger_flag_suppresses_recording(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "--scale", "1", "--no-ledger"]) == 0
        assert not (tmp_path / ledger.DEFAULT_LEDGER_PATH).exists()

    def test_check_records_drift_outcome(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        assert main(["check", "--scale", "1", "--ledger", str(path)]) == 0
        (entry,) = ledger.load_ledger(path)
        assert entry["kind"] == "check"
        assert entry["status"] == "ok"
        assert entry["drift"]["ok"] is True
        assert entry["drift"]["drifted"] == []


def _append_burst(args: tuple[str, int, int]) -> int:
    """Spawned-process worker: append `count` entries to one ledger."""
    path, worker_id, count = args
    from repro.telemetry import ledger as worker_ledger

    for index in range(count):
        entry = worker_ledger.build_entry(
            "trace",
            params={"scale": 1, "seed": f"concurrent-{worker_id}-{index}"},
            workers=1,
            seconds=0.01,
        )
        worker_ledger.append_entry(entry, path)
    return worker_id


class TestCacheLiveness:
    """lookup_config is a *servable* cache: dangling artifacts miss."""

    def _entry_with_artifact(self, path, seed="live"):
        return ledger.build_entry(
            "trace",
            params={"scale": 1, "seed": seed},
            manifest_digest="feed" + seed.ljust(12, "0")[:12],
            artifacts={"records_jsonl": path},
        )

    def test_lookup_skips_entries_with_deleted_artifacts(self, tmp_path):
        artifact = tmp_path / "run.jsonl"
        artifact.write_text('{"schema": "x"}\n')
        entry = self._entry_with_artifact(artifact)
        digest = entry["config_digest"]
        assert ledger.lookup_config([entry], digest) is entry
        artifact.unlink()
        # The regression: a hit whose bytes are gone must not be served.
        assert ledger.lookup_config([entry], digest) is None

    def test_lookup_falls_back_to_older_live_entry(self, tmp_path):
        old_artifact = tmp_path / "old.jsonl"
        old_artifact.write_text("{}\n")
        new_artifact = tmp_path / "new.jsonl"
        new_artifact.write_text("{}\n")
        older = self._entry_with_artifact(old_artifact)
        newer = self._entry_with_artifact(new_artifact)
        digest = older["config_digest"]
        assert ledger.lookup_config([older, newer], digest) is newer
        new_artifact.unlink()
        assert ledger.lookup_config([older, newer], digest) is older

    def test_artifactless_entries_stay_servable(self):
        entry = ledger.build_entry(
            "audit", params={"include_passthrough": True}, manifest_digest="abcd"
        )
        assert ledger.artifacts_live(entry)
        assert ledger.lookup_config([entry], entry["config_digest"]) is entry


#: A ``trace --scale 1 --progress`` entry as the release with run-health
#: sampling wrote it: it carries the ``heartbeats`` and ``resources``
#: fields that later releases no longer write.
OLDER_ENTRY = {
    "command": "trace",
    "config_digest": "6fcefa57f49b8909ec0f73be9b6fb208",
    "date": "2026-10-18",
    "heartbeats": 3,
    "host": {"cpu_count": 2, "machine": "x86_64", "platform": "linux"},
    "kind": "run",
    "manifest_digest": "4f7f42bae788c00ecab86bd3aa540a20",
    "metrics_totals": {
        "iotls_capture_connections_total": 10697,
        "iotls_capture_records_total": 3866,
        "iotls_capture_revocation_events_total": 78,
        "iotls_handshake_alerts_total": 0,
        "iotls_handshakes_total": 3866,
        "iotls_negotiated_versions_total": 3866,
        "iotls_trace_device_months_total": 958,
        "iotls_trace_devices_total": 40,
    },
    "params": {"scale": 1, "seed": "iotls-passive"},
    "resources": {
        "cpu_system_seconds": 0.078,
        "cpu_user_seconds": 1.7187,
        "gc_collections": 52,
        "peak_rss_kib": 52444,
        "peak_traced_bytes": 5516084,
    },
    "schema": "iotls-run-ledger/1",
    "seconds": 1.3292,
    "status": "ok",
    "workers": 1,
}

#: ``request_digest`` per command, for the default request and for one
#: that sets every request field.  A digest that moves by accident turns
#: every cached serve result into a miss; one that moves on purpose (the
#: package version bumped because output moved) is pinned here anew.
_FULL_REQUEST = dict(
    scale=3, seed="s", flow_cap=5, include_passthrough=False, device="Wink Hub 2", limit=7
)
REQUEST_DIGESTS = {
    "audit": ("c54182e7a8582dde9ec9e701291746ed", "b56733e0e11653042e6da1f6b06d75f6"),
    "check": ("18fb070c4a6da2dabe61f5b2863f891d", "ac399119a8bbc473353a00764360b7cb"),
    "pcap": ("dbad264f3daf3a543956a6d8c6617b16", "5cd87fefde76c5b243d6656f1155bbc3"),
    "probe": ("5cb9fa76c98f1c7b295927009707cf8c", "54bf967550a01c89aa2437a95b31fd41"),
    "report": ("999aba8d8f192eaef87099d8bcc2c5d1", "6fbb44ee37b194116162842864200635"),
    "trace": ("a138984c95fe99a071d35b2c450f0583", "a3d0915efe2adf4abf4d7ab6a973d0a9"),
}
#: The same digests as release 1.0.0 recorded them, before the keyed
#: flow jitter moved every trace's flow counts.
OLDER_DIGESTS = {
    "audit": ("164e2e53106f3afe16bbb48c8466f4f9", "0eda0b62721622e808c8a4d15736f5c6"),
    "check": ("7dac8e361359d2b4ad9fc5218db378b6", "66bc2960e4fab31b38e1cdf4fdb2433e"),
    "pcap": ("e80fb570538a7d697fdec2670b20181d", "143c37e6774bbcebfd519bb50531815f"),
    "probe": ("a2ce881e073f0ccdb77227da2873cd5b", "5e806e490fc4ab7de6626049ab93aa20"),
    "report": ("ce1c98d960be8bd9ed86637b98987d7c", "2c9cca6776044cfe1892e41157f4b727"),
    "trace": ("1515d8fa567ec2b85325b6f7061cdc63", "93eb3f67c6216f5700cca10a917b19e2"),
}


class TestOlderLedgersStillRead:
    """A ledger release 1.0.0 wrote, before run-health sampling was
    retired, keeps validating and rendering; its results are no longer
    served, because trace output moved after that release."""

    @pytest.fixture
    def older_ledger(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps(OLDER_ENTRY, sort_keys=True) + "\n")
        return path

    def test_entry_meets_the_ledger_contract(self, older_ledger):
        assert check_contract(older_ledger, ledger.LEDGER_SCHEMA) == []

    def test_runs_show_renders_it(self, older_ledger, capsys):
        assert main(["runs", "--ledger", str(older_ledger), "show", "4f7f42ba"]) == 0
        out = capsys.readouterr().out
        assert "trace [run] -- ok on 2026-10-18" in out
        assert '"seed": "iotls-passive"' in out

    def test_lookup_config_finds_it(self, older_ledger):
        entries = ledger.load_ledger(older_ledger)
        digest = config_digest("trace", OLDER_ENTRY["params"], "1.0.0")
        assert digest == OLDER_ENTRY["config_digest"]
        assert ledger.lookup_config(entries, digest) == OLDER_ENTRY

    def test_the_same_request_now_misses_it(self, older_ledger):
        entries = ledger.load_ledger(older_ledger)
        assert ledger.lookup_config(entries, request_digest("trace", RunConfig(scale=1))) is None

    @pytest.mark.parametrize("command", sorted(REQUEST_DIGESTS))
    def test_request_digests_unchanged(self, command):
        default, full = REQUEST_DIGESTS[command]
        assert request_digest(command, RunConfig()) == default
        assert request_digest(command, RunConfig(**_FULL_REQUEST)) == full

    @pytest.mark.parametrize("command", sorted(OLDER_DIGESTS))
    def test_only_the_version_moved_the_digests(self, command):
        params = command_spec(command).params
        older = tuple(
            config_digest(command, params(config), "1.0.0")
            for config in (RunConfig(), RunConfig(**_FULL_REQUEST))
        )
        assert older == OLDER_DIGESTS[command]
        assert not set(older) & set(REQUEST_DIGESTS[command])


class TestConcurrentAppends:
    """The serve path's steady state: many processes, one ledger file."""

    def test_parallel_processes_never_tear_lines(self, ledger_path):
        import multiprocessing

        workers, per_worker = 4, 8
        context = multiprocessing.get_context("spawn")
        with context.Pool(processes=workers) as pool:
            finished = pool.map(
                _append_burst,
                [(str(ledger_path), wid, per_worker) for wid in range(workers)],
            )
        assert sorted(finished) == list(range(workers))

        raw_lines = ledger_path.read_text().splitlines()
        # Exactly one line per run: nothing lost, nothing doubled.
        assert len(raw_lines) == workers * per_worker
        seeds = set()
        for line in raw_lines:
            entry = json.loads(line)  # no torn/interleaved lines
            assert entry["schema"] == ledger.LEDGER_SCHEMA
            seeds.add(entry["params"]["seed"])
        assert seeds == {
            f"concurrent-{wid}-{index}"
            for wid in range(workers)
            for index in range(per_worker)
        }
        # The tolerant loader agrees byte-for-byte.
        assert len(ledger.load_ledger(ledger_path)) == workers * per_worker
