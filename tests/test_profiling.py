"""The per-module profile behind ``--profile`` / ``--profile-out``: the
document, how time outside the package is charged, that profiling off
installs nothing, and that profiling never changes a manifest."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import cli, telemetry
from repro.cli import main
from repro.telemetry import PROFILE_SCHEMA, profile_call, profiling
from repro.telemetry.profiling import OTHER

#: A stand-in ``repro`` module: ``work`` calls ``helper`` three times,
#: and each ``helper`` call spends its time in the ``sorted`` builtin.
SYNTH = """\
def helper():
    return sorted(range(20000), key=lambda n: -n)


def work():
    for _ in range(3):
        helper()
"""


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.configure(enabled=False)
    yield
    telemetry.configure(enabled=False)


def _load(root: Path, name: str, source: str):
    path = root / f"{name}.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def root(tmp_path, monkeypatch):
    """``tmp_path`` standing in for the package: its ``.py`` files are
    the modules a profile names."""
    root = tmp_path.resolve()
    monkeypatch.setattr(profiling, "PACKAGE_ROOT", root)
    return root


def _profile(fn, *args) -> dict:
    """The document of one profiled ``fn(*args)``."""
    return profile_call("synth", fn, *args)[1]


@pytest.fixture()
def synth_profile(root):
    """A profiled ``synth.work()``: ``synth`` is the only module."""
    return _profile(_load(root, "synth", SYNTH).work)


def _by(document, key):
    return {row[key]: row for row in document[key + "s"]}


class TestAggregation:
    def test_self_time_subtracts_children(self, root):
        """A module's row holds its own functions' self time, not the
        time of the other modules they call."""
        inner = _load(root, "inner", "def spin():\n    return sum(n * n for n in range(50000))\n")
        outer = _load(root, "outer", "def run(spin):\n    for _ in range(3):\n        spin()\n")
        document = _profile(outer.run, inner.spin)
        modules = _by(document, "module")
        functions = _by(document, "function")
        assert modules["outer"]["self_seconds"] == pytest.approx(
            functions["outer:run"]["self_seconds"], abs=1e-5
        )
        assert modules["outer"]["self_seconds"] < modules["inner"]["self_seconds"]


class TestCharging:
    def test_builtin_time_lands_on_its_repro_caller(self, synth_profile):
        modules = _by(synth_profile, "module")
        functions = _by(synth_profile, "function")
        sorted_row = functions["{built-in method builtins.sorted}"]
        # The lambda is defined in synth.py, so it is synth's own time;
        # ``sorted`` is a builtin whose direct caller is synth.helper.
        own = [functions[f"synth:{name}"] for name in ("work", "helper", "<lambda>")]
        assert sorted_row["self_seconds"] > 0
        assert modules["synth"]["self_seconds"] == pytest.approx(
            sorted_row["self_seconds"] + sum(row["self_seconds"] for row in own), abs=1e-5
        )
        assert set(modules) <= {"synth", OTHER}
        assert synth_profile["coverage"] > 0.9

    def test_calls_accumulate_per_module(self, synth_profile):
        calls = {name: row["calls"] for name, row in _by(synth_profile, "function").items()}
        assert calls["synth:work"] == 1
        assert calls["synth:helper"] == 3
        assert calls["{built-in method builtins.sorted}"] == 3
        # A row counts the calls whose self time it holds: synth's own
        # functions plus the builtin calls charged to it.
        assert _by(synth_profile, "module")["synth"]["calls"] == 1 + 3 + 3 + calls[
            "synth:<lambda>"
        ]


class TestProfileDocument:
    def test_document_shape(self, synth_profile):
        assert set(synth_profile) == {
            "schema", "command", "total_seconds", "coverage", "modules", "functions",
        }
        assert synth_profile["schema"] == PROFILE_SCHEMA == "iotls-profile/2"
        assert synth_profile["command"] == "synth"
        for row in synth_profile["modules"]:
            assert set(row) == {"module", "calls", "self_seconds", "share"}
        for row in synth_profile["functions"]:
            assert set(row) == {"function", "calls", "self_seconds", "share"}
        json.dumps(synth_profile)

    def test_rows_sorted_by_self_time(self, synth_profile):
        for key in ("modules", "functions"):
            seconds = [row["self_seconds"] for row in synth_profile[key]]
            assert seconds == sorted(seconds, reverse=True)


class TestCliProfile:
    def test_trace_profile_exports(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        status = main(
            ["trace", "--scale", "1", "--profile-out", str(path), "--no-ledger"]
        )
        assert status == 0
        document = json.loads(path.read_text())
        assert document["schema"] == PROFILE_SCHEMA
        assert document["command"] == "trace"
        modules = _by(document, "module")
        assert {"tls.engine", "longitudinal.generator", "analysis.streaming"} <= set(modules)
        assert document["coverage"] >= 0.7
        assert document["coverage"] == pytest.approx(
            1 - modules[OTHER]["share"], abs=1e-3
        )
        # Every module is listed; shares are rounded to 4 places each.
        assert sum(row["share"] for row in modules.values()) == pytest.approx(
            1, abs=1e-4 * len(modules)
        )
        assert len(document["functions"]) == 20

    def test_profile_prints_module_and_function_tables(self, capsys):
        assert main(["audit", "--no-passthrough", "--profile", "--no-ledger"]) == 0
        out = capsys.readouterr().out
        profile = out[out.index("\nprofile: "):]
        module_table, function_table = profile.strip().split("\n\n")
        assert module_table.splitlines()[1].split() == ["module", "|", "calls", "|",
                                                        "self", "(s)", "|", "share"]
        listed = {line.split()[0] for line in module_table.splitlines()[3:]}
        assert {"core.interception", "core.downgrade", "core.prober",
                "pki.validation"} <= listed
        assert len(function_table.splitlines()) == 2 + 10

    def test_profile_off_installs_no_hook(self, monkeypatch):
        hooks = []
        trace = cli._COMMANDS["trace"]

        def observed(args):
            hooks.append(sys.getprofile())
            return trace(args)

        monkeypatch.setitem(cli._COMMANDS, "trace", observed)
        assert main(["trace", "--scale", "1", "--no-ledger"]) == 0
        assert hooks == [None]

    def test_cli_import_loads_no_profiler(self):
        """A subprocess, because this test process has profiled already."""
        src = Path(repro.__file__).resolve().parents[1]
        probe = "import sys, repro.cli; print(sorted({'cProfile', 'pstats'} & set(sys.modules)))"
        completed = subprocess.run(
            [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        )
        assert completed.stdout.strip() == "[]"


class TestManifests:
    @pytest.mark.parametrize("flags", [[], ["--telemetry"]], ids=["plain", "telemetry"])
    def test_profile_leaves_the_manifest_unchanged(self, tmp_path, capsys, flags):
        argv = ["trace", "--scale", "1", "--no-ledger", *flags]
        assert main([*argv, "--manifest", str(tmp_path / "plain.json")]) == 0
        assert main([*argv, "--profile", "--manifest", str(tmp_path / "profiled.json")]) == 0
        plain = (tmp_path / "plain.json").read_bytes()
        assert (tmp_path / "profiled.json").read_bytes() == plain
        assert bool(json.loads(plain)["metrics"]["counters"]) == bool(flags)
