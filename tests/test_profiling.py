"""Profiler tests: path aggregation, self time, collapsed stacks, the
profile document, and the CLI --profile surface."""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.telemetry import Profiler, Tracer, render_hot_table
from repro.telemetry.profiling import PROFILE_SCHEMA


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.configure(enabled=False)
    yield
    telemetry.configure(enabled=False)


def _traced(fn) -> Tracer:
    tracer = Tracer(enabled=True)
    fn(tracer)
    return tracer


class TestAggregation:
    def test_paths_join_parent_chain(self):
        def run(tracer):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass

        profiler = Profiler.from_tracer(_traced(run))
        assert {stat.path for stat in profiler.paths()} == {"outer", "outer;inner"}

    def test_self_time_subtracts_children(self):
        def run(tracer):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass

        profiler = Profiler.from_tracer(_traced(run))
        by_path = {stat.path: stat for stat in profiler.paths()}
        outer, inner = by_path["outer"], by_path["outer;inner"]
        assert outer.self_time == pytest.approx(
            outer.cumulative - inner.cumulative, abs=1e-9
        )
        assert inner.self_time == pytest.approx(inner.cumulative, abs=1e-9)

    def test_calls_accumulate_per_path(self):
        def run(tracer):
            for _ in range(3):
                with tracer.span("repeat"):
                    pass

        profiler = Profiler.from_tracer(_traced(run))
        (stat,) = profiler.paths()
        assert stat.calls == 3
        assert stat.min <= stat.mean <= stat.max

    def test_hot_spans_sorting(self):
        def run(tracer):
            with tracer.span("a"):
                with tracer.span("b"):
                    pass

        profiler = Profiler.from_tracer(_traced(run))
        hot = profiler.hot_spans(1)
        assert hot[0].path == "a"  # cumulative includes the child
        with pytest.raises(ValueError):
            profiler.hot_spans(1, by="wallclock")


class TestCollapsedStacks:
    def test_format_and_self_time_units(self):
        def run(tracer):
            with tracer.span("root"):
                with tracer.span("leaf"):
                    pass

        stacks = Profiler.from_tracer(_traced(run)).collapsed_stacks()
        lines = stacks.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            path, _, value = line.rpartition(" ")
            assert path in ("root", "root;leaf")
            assert int(value) >= 0  # integer microseconds

    def test_empty_profiler(self):
        assert Profiler().collapsed_stacks() == ""


class TestProfileDocument:
    def test_to_dict_shape(self):
        def run(tracer):
            with tracer.span("trace.generate"):
                with tracer.span("trace.device"):
                    pass

        document = Profiler.from_tracer(_traced(run)).to_dict()
        assert set(document) == {"schema", "spans", "hot", "phases", "collapsed_stacks"}
        assert document["schema"] == PROFILE_SCHEMA
        assert document["phases"]["trace.device"] > 0
        json.dumps(document)


class TestRenderHotTable:
    def test_empty_mentions_telemetry(self):
        assert "telemetry" in render_hot_table(Profiler())

    def test_table_lists_hot_paths(self):
        def run(tracer):
            with tracer.span("trace.generate"):
                with tracer.span("trace.device"):
                    pass

        table = render_hot_table(Profiler.from_tracer(_traced(run)))
        header, rule, *rows = table.splitlines()
        assert header.split() == ["span", "path", "calls", "cum", "(s)", "self", "(s)",
                                  "mean", "(ms)"]
        assert set(rule) <= {"-", " "}
        assert sorted(row.split()[0] for row in rows) == [
            "trace.generate", "trace.generate;trace.device"
        ]


class TestCliProfile:
    def test_trace_profile_exports(self, tmp_path, capsys):
        status = main(
            [
                "trace",
                "--scale",
                "1",
                "--profile",
                "--profile-out",
                str(tmp_path / "profile.json"),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "hot spans:" in out
        assert "trace.generate" in out
        document = json.loads((tmp_path / "profile.json").read_text())
        assert document["schema"] == PROFILE_SCHEMA
        assert any(s["path"] == "trace.generate" for s in document["spans"])
        assert "trace.generate;trace.device" in document["collapsed_stacks"]

    def test_profile_disabled_costs_one_boolean_read(self):
        # The acceptance contract: without --profile, the hot path's only
        # profiling cost is the tracer's enabled check -- i.e. nothing is
        # recorded and the runtime stays disabled.
        runtime = telemetry.get()
        assert runtime.enabled is False
        status = main(["trace", "--scale", "1"])
        assert status == 0
        assert runtime.enabled is False
        assert len(runtime.tracer.finished) == 0
