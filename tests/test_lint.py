"""reprolint: the AST invariant checker (engine, rules, baseline, CLI).

Each rule gets a good/bad fixture pair, so the rule's boundary is
pinned from both sides: the bad snippet must fire and the good snippet
-- the idiom the codebase actually uses -- must stay silent.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as iotls_main
from repro.lint import (
    Baseline,
    BaselineEntry,
    LintReport,
    all_rules,
    render,
    run_lint,
    select_rules,
)
from repro.lint.baseline import TODO_JUSTIFICATION
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_source(tmp_path: Path, source: str, **kwargs) -> LintReport:
    """Lint one snippet as a standalone file rooted at ``tmp_path``."""
    target = tmp_path / "snippet.py"
    target.write_text(source)
    return run_lint([target], root=tmp_path, **kwargs)


def codes(report: LintReport) -> list[str]:
    return [violation.code for violation in report.violations]


# ----------------------------------------------------------------------
# Rule fixtures: determinism family
# ----------------------------------------------------------------------
class TestRL002WallClock:
    @pytest.mark.parametrize(
        "source",
        [
            "import time\nnow = time.time()\n",
            "from time import time\nnow = time()\n",
            "from datetime import datetime\nnow = datetime.now()\n",
            "import datetime\nnow = datetime.datetime.utcnow()\n",
            "import os\nnoise = os.urandom(8)\n",
            "import uuid\nrun_id = uuid.uuid4()\n",
        ],
    )
    def test_bad_nondeterministic_sources(self, tmp_path, source):
        assert codes(lint_source(tmp_path, source)) == ["RL002"]

    def test_good_monotonic_and_simulated_time(self, tmp_path):
        source = (
            "from time import perf_counter\n"
            "from datetime import datetime\n"
            "started = perf_counter()\n"
            "when = datetime(2018, 1, 1)\n"
            "parsed = datetime.fromisoformat('2018-01-01')\n"
        )
        assert codes(lint_source(tmp_path, source)) == []

    def test_clock_boundary_module_is_exempt(self, tmp_path):
        boundary = tmp_path / "src" / "repro" / "telemetry"
        boundary.mkdir(parents=True)
        target = boundary / "clock.py"
        target.write_text("import time\nnow = time.time()\n")
        report = run_lint([target], root=tmp_path)
        assert codes(report) == []


class TestRL003SetIteration:
    @pytest.mark.parametrize(
        "source",
        [
            "for item in {'b', 'a'}:\n    print(item)\n",
            "names = list({record for record in []})\n",
            "out = ','.join(set('abc'))\n",
            "rows = [x for x in set([1, 2])]\n",
        ],
    )
    def test_bad_hash_order_iteration(self, tmp_path, source):
        assert codes(lint_source(tmp_path, source)) == ["RL003"]

    def test_good_sorted_wrapping(self, tmp_path):
        source = (
            "devices = sorted({r for r in ['b', 'a']})\n"
            "for name in sorted(set('abc')):\n"
            "    print(name)\n"
            "n = len({1, 2})\n"
            "present = 'a' in {'a', 'b'}\n"
        )
        assert codes(lint_source(tmp_path, source)) == []


# ----------------------------------------------------------------------
# Rule fixtures: telemetry family
# ----------------------------------------------------------------------
class TestRL011SpanContextManager:
    def test_bad_span_assigned(self, tmp_path):
        source = "def run(tracer):\n    span = tracer.span('leaky')\n    return span\n"
        assert codes(lint_source(tmp_path, source)) == ["RL011"]

    def test_good_span_with_statement(self, tmp_path):
        source = (
            "def run(tracer):\n"
            "    with tracer.span('ok', device='d') as span:\n"
            "        span.annotate(n=1)\n"
        )
        assert codes(lint_source(tmp_path, source)) == []

    def test_good_multiple_with_items(self, tmp_path):
        source = (
            "def run(a, b):\n"
            "    with a.span('one'), b.span('two'):\n"
            "        pass\n"
        )
        assert codes(lint_source(tmp_path, source)) == []


class TestRL013LedgerWriteBoundary:
    @pytest.mark.parametrize(
        "source",
        [
            "def save(entry, ledger_path):\n"
            "    with open(ledger_path, 'a') as fh:\n"
            "        fh.write(entry)\n",
            "from pathlib import Path\n"
            "Path('.iotls/ledger.jsonl').write_text('{}')\n",
            "def save(ledger_path):\n"
            "    ledger_path.open('w').write('entry')\n",
            "import os\n"
            "fd = os.open('ledger.jsonl', os.O_WRONLY | os.O_APPEND)\n",
        ],
    )
    def test_bad_ledger_write_outside_boundary(self, tmp_path, source):
        assert codes(lint_source(tmp_path, source)) == ["RL013"]

    def test_good_reads_and_unrelated_writes(self, tmp_path):
        source = (
            "from pathlib import Path\n"
            "def load(ledger_path):\n"
            "    return Path(ledger_path).read_text()\n"
            "def dump(manifest_path, payload):\n"
            "    with open(manifest_path, 'w') as fh:\n"
            "        fh.write(payload)\n"
        )
        assert codes(lint_source(tmp_path, source)) == []

    def test_good_append_through_the_boundary_api(self, tmp_path):
        source = (
            "from repro.telemetry import ledger as run_ledger\n"
            "def record(entry, path):\n"
            "    run_ledger.append_entry(entry, path)\n"
        )
        assert codes(lint_source(tmp_path, source)) == []

    def test_ledger_boundary_module_is_exempt(self, tmp_path):
        boundary = tmp_path / "src" / "repro" / "telemetry"
        boundary.mkdir(parents=True)
        target = boundary / "ledger.py"
        target.write_text(
            "import os\n"
            "def append(line, ledger_path):\n"
            "    fd = os.open(ledger_path, os.O_WRONLY | os.O_APPEND)\n"
        )
        report = run_lint([target], root=tmp_path)
        assert codes(report) == []


# ----------------------------------------------------------------------
# Rule fixtures: exception hygiene family
# ----------------------------------------------------------------------
class TestRL030ExceptionHygiene:
    def test_bad_bare_except(self, tmp_path):
        source = "try:\n    x = 1\nexcept:\n    x = 2\n"
        assert codes(lint_source(tmp_path, source)) == ["RL030"]

    def test_bad_swallowed_exception(self, tmp_path):
        source = "try:\n    x = 1\nexcept Exception:\n    pass\n"
        assert codes(lint_source(tmp_path, source)) == ["RL030"]

    def test_good_typed_handler(self, tmp_path):
        source = (
            "try:\n    x = 1\n"
            "except (OSError, ValueError) as exc:\n"
            "    raise RuntimeError('context') from exc\n"
        )
        assert codes(lint_source(tmp_path, source)) == []

    def test_good_broad_handler_that_handles(self, tmp_path):
        source = (
            "def run(log):\n"
            "    try:\n        x = 1\n"
            "    except Exception as exc:\n"
            "        log.error('failed', error=str(exc))\n"
            "        raise\n"
        )
        assert codes(lint_source(tmp_path, source)) == []


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------
class TestEngine:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        report = lint_source(tmp_path, "def broken(:\n")
        assert codes(report) == ["RL000"]

    def test_select_and_ignore(self, tmp_path):
        source = "import time\nt = time.time()\nfor x in {'b', 'a'}:\n    print(x)\n"
        only_clock = lint_source(tmp_path, source, select=["RL002"])
        assert codes(only_clock) == ["RL002"]
        no_clock = lint_source(tmp_path, source, ignore=["RL002"])
        assert codes(no_clock) == ["RL003"]

    def test_unknown_code_raises(self):
        with pytest.raises(ValueError, match="RL999"):
            select_rules(select=["RL999"])

    def test_rule_catalog_covers_all_families(self):
        rules = all_rules()
        assert {rule.family for rule in rules} == {
            "determinism", "telemetry", "api", "exceptions", "concurrency"
        }
        assert len(rules) >= 8

    def test_project_rules_only_run_whole_program(self, tmp_path):
        """A project-scope rule stays silent without whole_program=True."""
        source = "import time\nasync def handler():\n    time.sleep(1)\n"
        plain = lint_source(tmp_path, source, select=["RL041"])
        assert codes(plain) == []
        whole = lint_source(tmp_path, source, select=["RL041"], whole_program=True)
        assert codes(whole) == ["RL041"]

    def test_repo_is_lint_clean_with_committed_baseline(self):
        """The acceptance gate: HEAD has no active violations."""
        baseline = Baseline.load(REPO_ROOT / "tools" / "lint_baseline.json")
        report = run_lint(
            [REPO_ROOT / "src", REPO_ROOT / "tools"],
            root=REPO_ROOT,
            baseline=baseline,
        )
        assert report.ok, [v.to_dict() for v in report.violations]
        assert not report.stale_baseline, [e.to_dict() for e in report.stale_baseline]
        assert not report.unjustified_baseline

    def test_repo_is_whole_program_clean_at_head(self):
        """The RL04x/RL022 acceptance gate: the graph pass finds nothing
        new at HEAD, and no concurrency or contract finding is baselined
        (true findings were fixed in serve/parallel, not baselined)."""
        baseline = Baseline.load(REPO_ROOT / "tools" / "lint_baseline.json")
        report = run_lint(
            [REPO_ROOT / "src", REPO_ROOT / "tools"],
            root=REPO_ROOT,
            baseline=baseline,
            whole_program=True,
        )
        assert report.ok, [v.to_dict() for v in report.violations]
        never_baselined = {"RL022", "RL041", "RL042"}
        assert not [
            v for v in report.suppressed if v.code in never_baselined
        ], "concurrency and contract findings must be fixed, not baselined"


# ----------------------------------------------------------------------
# Baseline round-trip
# ----------------------------------------------------------------------
class TestBaseline:
    def test_suppression_round_trip(self, tmp_path):
        source = "import time\nnow = time.time()\n"
        first = lint_source(tmp_path, source)
        assert codes(first) == ["RL002"]

        baseline = Baseline(entries=[], path=tmp_path / "baseline.json")
        rebuilt = baseline.rebuilt_from(first.violations)
        saved = rebuilt.save()
        loaded = Baseline.load(saved)
        assert [e.justification for e in loaded.entries] == [TODO_JUSTIFICATION]

        second = lint_source(tmp_path, source, baseline=loaded)
        assert second.ok
        assert codes(second) == []
        assert [v.code for v in second.suppressed] == ["RL002"]

    def test_stale_entry_detected(self, tmp_path):
        baseline = Baseline(
            entries=[
                BaselineEntry(
                    code="RL002",
                    path="snippet.py",
                    snippet="now = time.time()",
                    justification="was needed once",
                )
            ]
        )
        report = lint_source(tmp_path, "x = 1\n", baseline=baseline)
        assert report.ok
        assert [e.snippet for e in report.stale_baseline] == ["now = time.time()"]

    def test_line_shift_does_not_invalidate_suppression(self, tmp_path):
        source = "import time\nnow = time.time()\n"
        baseline = Baseline(entries=[], path=tmp_path / "b.json").rebuilt_from(
            lint_source(tmp_path, source).violations
        )
        shifted = "import time\n\n\n# comment\nnow = time.time()\n"
        report = lint_source(tmp_path, shifted, baseline=baseline)
        assert report.ok and [v.code for v in report.suppressed] == ["RL002"]

    def test_justification_preserved_on_rebuild(self, tmp_path):
        source = "import time\nnow = time.time()\n"
        violations = lint_source(tmp_path, source).violations
        first = Baseline(entries=[], path=tmp_path / "b.json").rebuilt_from(violations)
        entry = first.entries[0]
        first.entries = [
            BaselineEntry(entry.code, entry.path, entry.snippet, "a real reason")
        ]
        again = first.rebuilt_from(violations)
        assert [e.justification for e in again.entries] == ["a real reason"]


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
class TestReporters:
    @pytest.fixture()
    def failing_report(self, tmp_path):
        return lint_source(tmp_path, "import time\nnow = time.time()\n")

    def test_json_schema(self, failing_report):
        payload = json.loads(render(failing_report, "json"))
        assert payload["schema"] == "reprolint-report/1"
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        [violation] = payload["violations"]
        assert set(violation) == {
            "code", "path", "line", "col", "message", "snippet",
            "end_line", "end_col",
        }
        assert violation["code"] == "RL002"
        assert violation["line"] == 2
        assert payload["rules"]["RL002"]["family"] == "determinism"
        assert payload["suppressed"] == []
        assert payload["stale_baseline"] == []

    def test_github_annotations(self, failing_report):
        text = render(failing_report, "github")
        assert "::error file=snippet.py,line=2," in text
        assert "title=reprolint RL002::" in text
        assert "::notice title=reprolint::" in text

    def test_github_annotations_carry_expression_span(self, failing_report):
        """endLine/endColumn highlight the offending expression."""
        [violation] = failing_report.violations
        assert violation.end_line == 2
        assert violation.end_col > violation.col
        text = render(failing_report, "github")
        assert f",endLine={violation.end_line},endColumn={violation.end_col}," in text

    def test_human_summary(self, failing_report):
        text = render(failing_report, "human")
        assert "snippet.py:2:" in text
        assert "reprolint FAILED" in text

    def test_unknown_format_raises(self, failing_report):
        with pytest.raises(ValueError, match="unknown format"):
            render(failing_report, "xml")


# ----------------------------------------------------------------------
# CLI (module entry and iotls subcommand)
# ----------------------------------------------------------------------
class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        status = lint_main([str(target), "--root", str(tmp_path), "--no-baseline"])
        assert status == 0
        assert "reprolint ok" in capsys.readouterr().out

    def test_bad_file_exits_one(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import time\nnow = time.time()\n")
        status = lint_main([str(target), "--root", str(tmp_path), "--no-baseline"])
        assert status == 1
        assert "RL002" in capsys.readouterr().out

    def test_unknown_rule_code_exits_two(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        status = lint_main([str(target), "--select", "RL999", "--no-baseline"])
        assert status == 2
        assert "RL999" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path):
        assert lint_main([str(tmp_path / "nope.py"), "--no-baseline"]) == 2

    def test_update_baseline_writes_and_suppresses(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import time\nnow = time.time()\n")
        baseline_path = tmp_path / "baseline.json"
        assert (
            lint_main(
                [
                    str(target),
                    "--root", str(tmp_path),
                    "--baseline", str(baseline_path),
                    "--update-baseline",
                ]
            )
            == 0
        )
        assert baseline_path.exists()
        capsys.readouterr()
        status = lint_main(
            [str(target), "--root", str(tmp_path), "--baseline", str(baseline_path)]
        )
        assert status == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_iotls_lint_smoke(self, tmp_path, capsys):
        """The subcommand wiring: `iotls lint <clean file>` exits 0."""
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        status = iotls_main(
            ["lint", str(target), "--root", str(tmp_path), "--no-baseline"]
        )
        assert status == 0
        assert "reprolint ok" in capsys.readouterr().out

    def test_iotls_lint_list_rules(self, capsys):
        assert iotls_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RL002", "RL003", "RL011", "RL030"):
            assert code in out


# ----------------------------------------------------------------------
# Regression tests for violations fixed in this PR
# ----------------------------------------------------------------------
class TestFixedViolations:
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

    def test_bench_tools_have_no_wall_clock_reads(self):
        report = run_lint(
            sorted((REPO_ROOT / "tools").glob("bench_*.py")),
            root=REPO_ROOT,
            select=["RL002"],
        )
        assert report.ok, [v.to_dict() for v in report.violations]


# ----------------------------------------------------------------------
# Whole-program pass 1: the project graph
# ----------------------------------------------------------------------
def write_mini_package(tmp_path: Path) -> Path:
    """A fixture package with known import and call edges."""
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from .util import helper\n")
    (pkg / "util.py").write_text(
        "def helper():\n"
        "    return leaf()\n"
        "\n"
        "\n"
        "def leaf():\n"
        "    return 1\n"
    )
    (pkg / "app.py").write_text(
        "import asyncio\n"
        "\n"
        "from . import util\n"
        "from pkg import helper\n"
        "\n"
        "\n"
        "class Service:\n"
        "    def _run(self):\n"
        "        return util.leaf()\n"
        "\n"
        "\n"
        "async def spawn():\n"
        "    return await asyncio.to_thread(helper)\n"
    )
    return pkg


class TestProjectGraph:
    @pytest.fixture()
    def graph(self, tmp_path):
        from repro.lint.project import build_graph
        from repro.lint.walker import iter_python_files, parse_module

        pkg = write_mini_package(tmp_path)
        contexts = [parse_module(p, tmp_path) for p in iter_python_files([pkg])]
        return build_graph(contexts)

    def test_symbol_table(self, graph):
        assert "pkg.util.helper" in graph.functions
        assert "pkg.util.leaf" in graph.functions
        assert "pkg.app.Service" in graph.classes
        assert "pkg.app.Service._run" in graph.functions
        assert graph.functions["pkg.app.spawn"].is_async

    def test_call_edges(self, graph):
        assert "pkg.util.leaf" in graph.calls["pkg.util.helper"]
        # `util.leaf()` resolves through the *relative* import in app.py.
        assert "pkg.util.leaf" in graph.calls["pkg.app.Service._run"]

    def test_reexport_alias_following(self, graph):
        # `from pkg import helper` lands on the definition re-exported
        # by pkg/__init__.py.
        assert graph.canonical("pkg.helper") == "pkg.util.helper"


# ----------------------------------------------------------------------
# Concurrency (RL041 whole-program, RL042 per file) and RL022
# ----------------------------------------------------------------------
def wp(tmp_path: Path, source: str, code: str) -> list[str]:
    """Whole-program lint of one snippet, selecting a single rule."""
    return codes(lint_source(tmp_path, source, select=[code], whole_program=True))


class TestRL041BlockingInEventLoop:
    def test_bad_direct_file_io(self, tmp_path):
        source = (
            "from pathlib import Path\n"
            "async def handler(path: Path):\n"
            "    return path.read_text()\n"
        )
        assert wp(tmp_path, source, "RL041") == ["RL041"]

    def test_bad_time_sleep(self, tmp_path):
        source = "import time\nasync def handler():\n    time.sleep(1)\n"
        assert wp(tmp_path, source, "RL041") == ["RL041"]

    def test_bad_transitively_blocking_helper(self, tmp_path):
        source = (
            "import time\n"
            "def backoff():\n"
            "    time.sleep(0.5)\n"
            "async def handler():\n"
            "    backoff()\n"
        )
        assert wp(tmp_path, source, "RL041") == ["RL041"]

    def test_good_to_thread_offload(self, tmp_path):
        # The serve/service.py pattern: the reference passed to
        # asyncio.to_thread never executes on the loop.
        source = (
            "import asyncio\n"
            "from pathlib import Path\n"
            "async def handler(path: Path):\n"
            "    return await asyncio.to_thread(path.read_text)\n"
        )
        assert wp(tmp_path, source, "RL041") == []

    def test_good_nonblocking_sync_helper(self, tmp_path):
        source = (
            "def shape(record):\n"
            "    return {'n': record}\n"
            "async def handler(record):\n"
            "    return shape(record)\n"
        )
        assert wp(tmp_path, source, "RL041") == []

    def test_good_sync_context_not_flagged(self, tmp_path):
        source = (
            "from pathlib import Path\n"
            "def loader(path: Path):\n"
            "    return path.read_text()\n"
        )
        assert wp(tmp_path, source, "RL041") == []


class TestRL042BareAcquire:
    def test_bad_bare_acquire(self, tmp_path):
        source = (
            "def hold(lock):\n"
            "    lock.acquire()\n"
            "    return 1\n"
        )
        assert wp(tmp_path, source, "RL042") == ["RL042"]

    def test_good_acquire_then_try_finally(self, tmp_path):
        source = (
            "def hold(lock):\n"
            "    lock.acquire()\n"
            "    try:\n"
            "        return 1\n"
            "    finally:\n"
            "        lock.release()\n"
        )
        assert wp(tmp_path, source, "RL042") == []

    def test_good_acquire_inside_guarded_try(self, tmp_path):
        source = (
            "def hold(lock):\n"
            "    try:\n"
            "        lock.acquire()\n"
            "        return 1\n"
            "    finally:\n"
            "        lock.release()\n"
        )
        assert wp(tmp_path, source, "RL042") == []

    def test_bad_mismatched_release_receiver(self, tmp_path):
        source = (
            "def hold(a, b):\n"
            "    a.acquire()\n"
            "    try:\n"
            "        return 1\n"
            "    finally:\n"
            "        b.release()\n"
        )
        assert wp(tmp_path, source, "RL042") == ["RL042"]


class TestRL022StreamSchemaContract:
    def _project(self, tmp_path: Path, consumer: str) -> LintReport:
        """A mini repo: the registry plus one consumer."""
        telemetry = tmp_path / "src" / "repro" / "telemetry"
        telemetry.mkdir(parents=True)
        (telemetry / "schemas.py").write_text(
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class StreamSchema:\n"
            "    name: str\n"
            "    version: int\n"
            "REGISTRY = (StreamSchema(name='trace-stream', version=1),)\n"
        )
        consumer_path = tmp_path / "src" / "repro" / "consumer.py"
        consumer_path.write_text(consumer)
        return run_lint(
            [tmp_path / "src"], root=tmp_path, select=["RL022"], whole_program=True
        )

    def test_bad_hardcoded_registered_id(self, tmp_path):
        report = self._project(tmp_path, "SCHEMA = 'iotls-trace-stream/1'\n")
        assert codes(report) == ["RL022"]
        assert "hard-coded" in report.violations[0].message

    def test_bad_unregistered_id(self, tmp_path):
        report = self._project(tmp_path, "SCHEMA = 'iotls-mystery/9'\n")
        assert codes(report) == ["RL022"]
        assert "not a registered" in report.violations[0].message

    def test_good_docstring_mention_is_exempt(self, tmp_path):
        consumer = '"""Writes iotls-trace-stream/1 bodies."""\nX = 1\n'
        assert codes(self._project(tmp_path, consumer)) == []

    def test_good_imported_constant(self, tmp_path):
        consumer = (
            "from repro.telemetry.schemas import REGISTRY\n"
            "SCHEMA = REGISTRY[0]\n"
        )
        assert codes(self._project(tmp_path, consumer)) == []
