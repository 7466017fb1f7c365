"""Tests of the benchmark itself.  Run with ``python -m pytest bench -q``.

The end-to-end tests run ``bench/run.py --quick`` (one op per process;
for serve one session of ten requests) in subprocesses, writing results
and ledger entries to a temporary directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import serve_load  # noqa: E402
import workloads  # noqa: E402


def bench(tmp_path: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick",
         "--out", str(tmp_path / "results.json"),
         "--ledger", str(tmp_path / "ledger.jsonl"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory) -> dict[str, dict]:
    tmp = tmp_path_factory.mktemp("untraced")
    return {w: last_json(bench(tmp, "--workload", w)) for w in run.WORKLOADS}


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict[str, dict]:
    tmp = tmp_path_factory.mktemp("traced")
    return {w: last_json(bench(tmp, "--workload", w, "--trace", "1")) for w in run.WORKLOADS}


def test_metric_names_and_units_match_the_spec(untraced, traced):
    for kind, runs in (("end_to_end", untraced), ("per_layer", traced)):
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        for workload, result in runs.items():
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == expected, (kind, workload)


def test_quick_runs_check_every_op_and_fail_none(untraced, traced):
    for result in list(untraced.values()) + list(traced.values()):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1


def test_layers_cover_the_traced_op_wall(traced):
    for workload in ("trace", "campaign"):
        assert traced[workload]["metrics"]["bench.coverage"]["value"] >= 0.9, workload


def test_tampered_reference_digest_fails_the_op(tmp_path):
    workload = workloads.CampaignWorkload("0", tmp_path)
    workload.reference_digest = "0" * 64
    result = workloads.run_ops(workload, range(1))
    assert [op["ok"] for op in result["ops"]] == [False]


def test_digest_mismatch_across_processes_fails_the_later_op():
    processes = [
        {"ops": [{"key": "0-1", "digest": "a", "ok": True}]},
        {"ops": [{"key": "0-1", "digest": "b", "ok": True},
                 {"key": "0-2", "digest": "c", "ok": True}]},
    ]
    run.cross_check(processes)
    assert [op["ok"] for p in processes for op in p["ops"]] == [True, False, True]


def test_serve_checker_rejects_a_changed_body():
    header = b'{"metadata": {}, "schema": "iotls-trace-stream/1"}\n'
    headers = {"X-IoTLS-Cache": "miss", "X-IoTLS-Manifest-Digest": "m"}
    checker = serve_load.Checker()
    assert checker.check("s", "miss", 200, headers, header + b"x") is None
    hit = dict(headers, **{"X-IoTLS-Cache": "hit"})
    assert checker.check("s", "hit", 200, hit, header + b"x") is None
    assert checker.check("s", "hit", 200, hit, header + b"y") is not None
    assert checker.check("s", "hit", 429, hit, b"") is not None
    assert checker.check("t", "hit", 200, headers, header) is not None  # a miss


def test_compare_flags_regressions_and_wide_spreads(tmp_path, capsys):
    def results(name: str, values: list[float]) -> Path:
        path = tmp_path / name
        runs = [{"workloads": {"trace": {"metrics": {"op_p50_norm_ms": v}}}} for v in values]
        path.write_text(json.dumps({"runs": runs}))
        return path

    steady = results("a.json", [100, 101, 99, 100, 100])
    assert run.compare(steady, results("b.json", [102, 101, 103, 102, 102]), SPEC) == 0
    assert run.compare(steady, results("c.json", [130, 131, 129, 130, 130]), SPEC) == 1
    assert "regressed" in capsys.readouterr().out
    assert run.compare(steady, results("d.json", [50, 100, 150, 200, 100]), SPEC) == 1
    assert "unresolved" in capsys.readouterr().out


def test_compare_holds_steady_workloads_to_their_own_bound(tmp_path):
    def results(name: str, workload: str, values: list[float]) -> Path:
        path = tmp_path / name
        runs = [{"workloads": {workload: {"metrics": {"op_p50_norm_ms": v}}}} for v in values]
        path.write_text(json.dumps({"runs": runs}))
        return path

    before, after = [100, 101, 99, 100, 100], [115, 116, 114, 115, 115]
    assert run.compare(results("a", "trace", before), results("b", "trace", after), SPEC) == 1
    assert run.compare(results("c", "campaign", before), results("d", "campaign", after), SPEC) == 0


def test_time_metrics_read_at_the_reference_speed():
    # A host running the reference at half speed runs the ops at half speed too.
    slow = reference.REFERENCE_MS / 1000 * 2
    ops = [{"seconds": 0.5, "reference_seconds": slow}, {"seconds": 0.7, "reference_seconds": slow}]
    metrics = run.end_to_end([{"setup_s": 2.0, "peak_rss_kib": 2048, "ops": ops}])
    assert metrics["op_p50_norm_ms"] == pytest.approx(300)
    assert metrics["setup_s"] == pytest.approx(1.0)
    assert metrics["peak_rss_mib"] == 2


def test_op_counts_depend_on_seconds_only():
    assert run.ops_per_process("trace", 15, 4) == round(15 / 4 / run.BASELINE_OP_S["trace"])
    assert run.ops_per_process("campaign", 1, 4) == run.MIN_OPS_PER_PROCESS


@dataclass(frozen=True)
class _Config:
    root_store: Any
    validate: bool = True


@dataclass(frozen=True)
class _Certificate:
    not_before: int
    not_after: int


@dataclass(frozen=True)
class _Response:
    chain: tuple[_Certificate, ...]


class _Store:
    def __init__(self, *certificates: str) -> None:
        self._certificates = certificates

    def certificates(self) -> list[str]:
        return list(self._certificates)


def _call(client: Any, when: int) -> tuple[tuple, dict, Any]:
    result = SimpleNamespace(
        client_hello="hello", hostname="host", response=_Response((_Certificate(0, 10),)),
        when=when, state="established", established_version=None,
        established_cipher_code=None, client_alert=None,
    )
    return (client, None), {"hostname": "host", "when": when}, result


def test_handshake_inputs_include_the_client_and_the_validity_window():
    client = SimpleNamespace(library="lib", config=_Config(_Store("a", "b")))
    same_config = SimpleNamespace(library="lib", config=_Config(_Store("b", "a")))
    other_store = SimpleNamespace(library="lib", config=_Config(_Store("a")))
    calls = [
        _call(client, 1),
        _call(client, 2),  # the same validity window
        _call(same_config, 3),  # an equal client
        _call(client, 11),  # past the certificate's window
        _call(other_store, 1),  # another root store
    ]
    inputs, outcomes = layers.handshake_shares(calls)
    assert inputs == pytest.approx(3 / 5)
    assert outcomes == pytest.approx(1 / 5)


def test_fails_without_a_program_to_measure(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "trace", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
