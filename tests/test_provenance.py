"""Run-manifest tests: digests, the deterministic metrics slice, and the
worker-invariance guarantee (manifests byte-identical with or without a
warm worker pool)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import telemetry
from repro.cli import main
from repro.telemetry import (
    MANIFEST_SCHEMA,
    MetricsRegistry,
    artifact_digest,
    build_manifest,
    deterministic_metrics,
    manifest_digest,
    write_manifest,
)
from repro.telemetry.provenance import canonical_json, config_digest, git_rev


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.configure(enabled=False)
    yield
    telemetry.configure(enabled=False)


class TestArtifactDigest:
    def test_identifies_by_basename_only(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        (tmp_path / "a" / "out.json").write_text("{}")
        (tmp_path / "b" / "out.json").write_text("{}")
        first = artifact_digest(tmp_path / "a" / "out.json")
        second = artifact_digest(tmp_path / "b" / "out.json")
        assert first == second  # directory must not leak into provenance
        assert first["name"] == "out.json"
        assert first["bytes"] == 2

    def test_digest_tracks_content(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("one")
        before = artifact_digest(path)["blake2s"]
        path.write_text("two")
        assert artifact_digest(path)["blake2s"] != before


class TestDeterministicMetrics:
    def test_keeps_counters_and_histogram_counts_only(self):
        registry = MetricsRegistry()
        registry.counter("iotls_handshakes_total").inc(3, state="established")
        registry.histogram("iotls_handshake_seconds").observe(0.001)
        slice_ = deterministic_metrics(registry)
        assert slice_["counters"]["iotls_handshakes_total"]["total"] == 3
        series = slice_["histogram_counts"]["iotls_handshake_seconds"]["series"]
        assert series == [{"labels": {}, "count": 1}]
        assert "sum" not in str(series)  # latency-dependent fields excluded


class TestManifest:
    def test_shape_and_digest_stability(self):
        manifest = build_manifest("trace", params={"scale": 1, "seed": "s"})
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["determinism"]["workers_invariant"] is True
        assert manifest["catalog"]["devices"] == 40
        assert manifest_digest(manifest) == manifest_digest(
            build_manifest("trace", params={"scale": 1, "seed": "s"})
        )

    def test_params_change_the_digest(self):
        one = build_manifest("trace", params={"scale": 1, "seed": "s"})
        two = build_manifest("trace", params={"scale": 2, "seed": "s"})
        assert manifest_digest(one) != manifest_digest(two)
        assert one["config"]["digest"] != two["config"]["digest"]

    def test_config_digest_covers_version(self):
        assert config_digest("trace", {}, "1.0.0") != config_digest("trace", {}, "1.0.1")

    def test_written_bytes_are_the_digested_bytes(self, tmp_path):
        manifest = build_manifest("pcap", params={"scale": 1, "limit": None})
        path = write_manifest(manifest, tmp_path / "deep" / "manifest.json")
        assert path.read_text() == canonical_json(manifest)
        loaded = json.loads(path.read_text())
        assert manifest_digest(loaded) == manifest_digest(manifest)


class TestWorkerInvariance:
    """The acceptance criterion: byte-identical manifests whether a run
    shards onto a warm pool of 2 or 4 processes or runs in-process."""

    @pytest.mark.parametrize("workers", ["2", "4"])
    def test_trace_manifest_byte_identical(self, tmp_path, workers, worker_pool):
        from repro.api import RunConfig, run_trace

        manifests = {}
        for n in ("1", workers):
            out = tmp_path / f"w{n}"
            result = run_trace(
                RunConfig(
                    scale=1,
                    seed="manifest-invariance",
                    ledger=None,
                    pool=worker_pool(int(n)),
                ),
                json_path=out / "trace.json",
            )
            manifests[n] = write_manifest(result.manifest, out / "manifest.json").read_bytes()
        assert manifests["1"] == manifests[workers]

    def test_trace_manifest_independent_of_hash_seed(self, tmp_path):
        """Set and dict-of-str order follows ``PYTHONHASHSEED``; two
        interpreters with different hash seeds must still write the same
        manifest and the same stream artifact, byte for byte.  Separate
        processes, because the hash seed is fixed at interpreter start."""
        src = Path(repro.__file__).resolve().parents[1]
        outputs = {}
        for hash_seed in ("0", "1"):
            out = tmp_path / f"hash{hash_seed}"
            out.mkdir()
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
            subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "trace", "--scale", "1",
                    "--telemetry", "--manifest", "manifest.json",
                    "--stream-out", "trace.jsonl", "--no-ledger",
                ],
                cwd=out, env=env, capture_output=True, check=True,
            )
            outputs[hash_seed] = [
                (out / name).read_bytes() for name in ("manifest.json", "trace.jsonl")
            ]
        assert outputs["0"] == outputs["1"]

    def test_digest_always_printed_without_flag(self, capsys):
        status = main(["trace", "--scale", "1", "--seed", "manifest-print"])
        assert status == 0
        assert "run manifest digest: " in capsys.readouterr().out


class TestGitRev:
    """A bench entry's ``git_rev`` names the tree it measured."""

    def _git(self, repo, *args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
            cwd=repo, capture_output=True, text=True, check=True,
        ).stdout.strip()

    def test_clean_dirty_and_outside_a_checkout(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()
        self._git(repo, "init", "-q")
        (repo / "tracked.txt").write_text("one\n")
        self._git(repo, "add", "tracked.txt")
        self._git(repo, "commit", "-q", "-m", "initial")
        head = self._git(repo, "rev-parse", "--short", "HEAD")

        assert git_rev(repo) == head
        (repo / "untracked.txt").write_text("ignored\n")
        assert git_rev(repo) == head
        (repo / "tracked.txt").write_text("two\n")
        assert git_rev(repo) == f"{head}-dirty"

        outside = tmp_path / "plain"
        outside.mkdir()
        assert git_rev(outside) == "unknown"
