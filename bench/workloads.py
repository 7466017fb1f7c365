"""One process of a batch workload (``trace``, ``campaign``, ``artifact``).

``bench/run.py`` starts this script once per set-up it measures.  The
process imports the program, builds the workload's inputs, runs one
untimed warm-up op and prints ``READY`` (the parent stamps set-up time on
that line).  It then checks the warm-up op against a reference and runs
``--ops`` timed ops, op ``i`` taking index ``first + i * stride``.  Its
last stdout line is one JSON document: per-op wall times, reference
times and check outcomes, the peak RSS and, when traced, the per-layer
totals over the timed ops only.

Usage (normally only ``run.py`` calls it)::

    python bench/workloads.py --workload trace --seed 0 --first 0 --stride 4 \
        --ops 9 --traced 0 --workdir DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any

import layers
import reference

#: Distinct seeds in the trace schedule: op ``i`` runs seed ``i % 10``,
#: so every seed runs at least twice in a run's 21 ops and the repeats
#: can be checked against each other.
TRACE_SEEDS = 10

#: Campaign summary fields and the paper cells they must match.
CAMPAIGN_CELLS = {
    "table5.downgrading_devices": "downgrading_device_count",
    "table6.old_version_devices": "old_version_device_count",
    "table7.vulnerable_devices": "vulnerable_device_count",
    "table7.sensitive_leaks": "sensitive_leak_count",
}


def digest(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# Each workload checks the untimed warm-up op with ``reference`` (None,
# or what is wrong) and every timed op with ``check``.  Paper cells are
# checked only where no seed enters: at some trace seeds a device crosses
# Figure 1's 5% threshold (seed "2007-6" moves figure1.shown_devices from
# 12 to 11), so trace and artifact outputs are checked against another
# code path and against repeat runs instead.


class TraceWorkload:
    """The passive-trace path: ``api.execute("trace")`` streaming at scale 40."""

    def __init__(self, seed: str, workdir: Path) -> None:
        self.seed = seed
        self.ledger = workdir / "ledger.jsonl"
        #: (flow records, devices, revocation events): the same at every seed.
        self.shape: tuple[int, int, int] | None = None

    def key(self, index: int) -> str:
        return f"{self.seed}-{index % TRACE_SEEDS}" if index >= 0 else f"{self.seed}-warm"

    def op(self, key: str) -> Any:
        from repro import api

        return api.execute("trace", api.RunConfig(stream=True, ledger=self.ledger, seed=key))

    def reference(self, key: str, result: Any) -> str | None:
        """The streamed cells must equal the materialised path's."""
        from repro.analysis import drift
        from repro.longitudinal import PassiveTraceGenerator

        analysis = result.analysis
        self.shape = (analysis.flow_records, analysis.dataset.device_count,
                      analysis.revocation_event_count)
        materialised = drift.measure_capture(PassiveTraceGenerator(seed=key).generate())
        if drift.measure_analysis(analysis) != materialised:
            return "streamed cells differ from the materialised capture's"
        return None

    def check(self, key: str, result: Any) -> dict[str, Any]:
        """Same shape as the warm-up; the digest must repeat per seed."""
        from repro.analysis import drift

        analysis = result.analysis
        shape = (analysis.flow_records, analysis.dataset.device_count,
                 analysis.revocation_event_count)
        return {
            "ok": shape == self.shape,
            "digest": digest({
                "cells": drift.measure_analysis(analysis),
                "connections": analysis.connections,
                "manifest": result.manifest_digest,
            }),
        }


class CampaignWorkload:
    """The active campaign: ``api.execute("audit")`` (takes no seed)."""

    def __init__(self, seed: str, workdir: Path) -> None:
        self.ledger = workdir / "ledger.jsonl"
        #: The warm-up op's document digest every timed op must equal.
        self.reference_digest: str | None = None

    def key(self, index: int) -> str:
        return "audit"

    def op(self, key: str) -> Any:
        from repro import api

        return api.execute("audit", api.RunConfig(ledger=self.ledger))

    def reference(self, key: str, result: Any) -> str | None:
        """The summary counts must match the paper's Table 5/6/7 cells."""
        from repro.analysis import drift

        self.reference_digest = self.check(key, result)["digest"]
        cells = {cell: getattr(result.results, field) for cell, field in CAMPAIGN_CELLS.items()}
        report = drift.audit(drift.load_expectations(), cells)
        if len(report.matched) != len(cells):
            return f"campaign cells drift: {[c.expectation.id for c in report.drifted]}"
        return None

    def check(self, key: str, result: Any) -> dict[str, Any]:
        from repro.analysis.export import campaign_to_document

        document_digest = digest(campaign_to_document(result.results))
        return {"ok": document_digest == self.reference_digest, "digest": document_digest}


class ArtifactWorkload:
    """Write one trace's chunks as JSONL, then audit the file back."""

    def __init__(self, seed: str, workdir: Path) -> None:
        from repro.analysis import drift
        from repro.analysis.streaming import TraceAnalysisPipeline
        from repro.devices.catalog import passive_devices
        from repro.longitudinal import PassiveTraceGenerator
        from repro.testbed.capture import sink_add_batch

        self.seed = seed
        self.path = workdir / "trace.jsonl"
        generator = PassiveTraceGenerator(seed=seed)
        self.chunks = [generator.generate_device_chunk(p) for p in passive_devices()]
        pipeline = TraceAnalysisPipeline()
        for chunk in self.chunks:
            sink_add_batch(pipeline, chunk)
        #: The cells of the in-memory chunks, which the audit must read back.
        self.cells = drift.measure_analysis(pipeline.finalize())
        #: The warm-up op's artifact digest every timed op must equal.
        self.reference_digest: str | None = None

    def key(self, index: int) -> str:
        return self.seed

    def op(self, key: str) -> dict[str, Any]:
        from repro.analysis import drift
        from repro.analysis.export import JsonlStreamWriter
        from repro.testbed.capture import sink_add_batch

        started = perf_counter()
        with JsonlStreamWriter(self.path, metadata={"seed": key}) as writer:
            for chunk in self.chunks:
                sink_add_batch(writer, chunk)
        written = perf_counter()
        report = drift.audit_artifact(self.path)
        return {
            "report": report,
            "phases": {"export_s": written - started, "check_s": perf_counter() - written},
        }

    def reference(self, key: str, outcome: dict[str, Any]) -> str | None:
        self.reference_digest = hashlib.sha256(self.path.read_bytes()).hexdigest()
        if not self.check(key, outcome)["ok"]:
            return "audited cells differ from the in-memory chunks'"
        return None

    def check(self, key: str, outcome: dict[str, Any]) -> dict[str, Any]:
        """The file must repeat byte for byte and read back the chunks' cells."""
        audited = {
            cell.expectation.id: cell.actual
            for cell in outcome["report"].cells
            if cell.actual is not None
        }
        artifact_digest = hashlib.sha256(self.path.read_bytes()).hexdigest()
        ok = audited == self.cells and artifact_digest == self.reference_digest
        return {"ok": ok, "digest": artifact_digest, "phases": outcome["phases"]}


WORKLOADS = {
    "trace": TraceWorkload,
    "campaign": CampaignWorkload,
    "artifact": ArtifactWorkload,
}


def run_ops(
    workload: Any, indices: Any, *, tracer: layers.LayerTracer | None = None
) -> dict[str, Any]:
    """One timed op per index of ``indices``.

    Only ``workload.op`` is timed; checks run after the clock stops, and
    with a tracer only the timed region's layer deltas are kept.  The
    host's speed (:func:`reference.time_reference`) is timed before the
    first op and after each one; an op's ``reference_seconds`` is the mean
    of the timings just before and just after it.  An op that raises or
    fails its check is recorded with ``ok: false`` (its traceback goes to
    stderr) and the run goes on.
    """
    records: list[dict[str, Any]] = []
    totals: dict[str, list[float]] = {}
    reference_before = reference.time_reference()
    for index in indices:
        key = workload.key(index)
        before = tracer.snapshot() if tracer is not None else None
        op_started = perf_counter()
        error = None
        try:
            outcome = workload.op(key)
        except Exception as exc:
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - op_started
        reference_after = reference.time_reference()
        record = {"index": index, "key": key, "seconds": seconds,
                  "reference_seconds": (reference_before + reference_after) / 2}
        reference_before = reference_after
        if error is not None:
            records.append(dict(record, ok=False, error=error))
            continue
        if tracer is not None:
            layers.add(totals, layers.delta(tracer.snapshot(), before))
        try:
            record.update(workload.check(key, outcome))
        except Exception as exc:
            traceback.print_exc()
            record.update(ok=False, error=f"check: {type(exc).__name__}: {exc}")
        records.append(record)
    result: dict[str, Any] = {"ops": records}
    if tracer is not None:
        result["layers"] = totals
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--first", type=int, default=0, help="first op index")
    parser.add_argument("--stride", type=int, default=1, help="op index step")
    parser.add_argument("--ops", type=int, required=True, help="timed ops")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.traced:
        tracer = layers.LayerTracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    warm_key = workload.key(-1)
    if tracer is not None:
        tracer.collect_handshakes()
    warm = workload.op(warm_key)
    shares = layers.handshake_shares(tracer.take_handshakes()) if tracer is not None else None
    print("READY", flush=True)
    problem = workload.reference(warm_key, warm)
    if problem is not None:
        print(f"warm-up op failed its check: {problem}", file=sys.stderr)
        return 1

    indices = range(args.first, args.first + args.ops * args.stride, args.stride)
    result = run_ops(workload, indices, tracer=tracer)
    if shares is not None:
        result["handshake_shares"] = shares
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ledger = getattr(workload, "ledger", None)
    if ledger is not None and ledger.exists():
        result["ledger_entries"] = len(ledger.read_bytes().splitlines())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
