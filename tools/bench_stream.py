"""Benchmark the streaming trace pipeline at paper scale.

Streams the full 27-month capture into a count-only sink at a large
``--scale`` (the default, 4000, approximates the study's ~17M-connection
volume -- 100x the analysis default) with a ``--flow-cap`` so record
volume tracks connection volume.  Two passes:

1. a **timing pass** with the tracemalloc hold disabled
   (``ResourceSampler(trace_heap=False)``) -- tracemalloc instruments
   every allocation and used to put a hard multi-second floor under the
   measurement, hiding real hot-path wins -- which produces the
   throughput figure and the RSS peak, then
2. a **heap probe** with tracing on, which produces the traced-heap
   peak; its wall time is never recorded.

The point of the memory measurement: peak memory must stay flat while
connection volume grows, because nothing is materialised.  Each run
appends one ``stream_trace`` bench entry to the run ledger, with the
workload shape in ``params`` -- including ``records_per_second`` (the
``stream-throughput-floor`` SLO) and ``peak_rss_kib`` (the
``stream-rss-ceiling`` SLO in ``tools/slo.json``).  ``iotls runs trend
--slo tools/slo.json`` gates on it.

Usage::

    PYTHONPATH=src python tools/bench_stream.py [--scale 4000] \
        [--flow-cap 50] [--workers 1] [--skip-heap-probe] [--ledger PATH]
"""

from __future__ import annotations

import argparse
from time import perf_counter

from repro import telemetry
from repro.longitudinal import PassiveTraceGenerator
from repro.parallel import pool_session
from repro.telemetry import ResourceSampler
from repro.telemetry.provenance import git_rev
from repro.testbed import DiscardSink

DEFAULT_SCALE = 4000  # ~100x the analysis default; approximates the paper's volume
SEED = "iotls-bench-stream"


def safe_rate(count: int, seconds: float, *, floor: float = 1e-9) -> float:
    """Events per second with the elapsed time clamped away from zero.

    A degenerate timing (zero or near-zero elapsed -- tiny workloads,
    coarse clocks) must never record ``inf``/``ZeroDivisionError`` into
    the trajectory: one non-finite ``records_per_second`` poisons every
    downstream trend statistic and SLO comparison over the series.
    """
    return count / max(seconds, floor)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    parser.add_argument("--flow-cap", type=int, default=50)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--skip-heap-probe",
        action="store_true",
        help="timing pass only; record peak_mib as 0 (quick iterations)",
    )
    parser.add_argument(
        "--ledger",
        default=telemetry.DEFAULT_LEDGER_PATH,
        metavar="PATH",
        help="run ledger to record the timing in "
        f"(default {telemetry.DEFAULT_LEDGER_PATH})",
    )
    args = parser.parse_args()

    generator = PassiveTraceGenerator(
        scale=args.scale, seed=SEED, flow_cap=args.flow_cap
    )
    # One warm pool spans both passes when --workers > 1, mirroring how
    # the run facade amortises worker spawns across phases.
    with pool_session(args.workers):
        # Timing pass: untraced, so the clock sees the real hot path.
        sink = DiscardSink()
        with ResourceSampler(trace_heap=False) as sampler:
            started = perf_counter()
            generator.stream_into(sink, workers=args.workers)
            seconds = perf_counter() - started
        resources = sampler.summary()

        # Heap probe: traced, untimed.  Same workload, so its traced
        # peak is the timing pass's peak without the observer effect.
        peak_traced_bytes = 0
        if not args.skip_heap_probe:
            with ResourceSampler() as heap_sampler:
                generator.stream_into(DiscardSink(), workers=args.workers)
            peak_traced_bytes = heap_sampler.summary()["peak_traced_bytes"]

    throughput = safe_rate(sink.records_seen, seconds)
    peak_mib = peak_traced_bytes / (1024 * 1024)
    peak_rss_kib = resources["peak_rss_kib"]
    print(
        f"scale={args.scale} flow_cap={args.flow_cap} workers={args.workers}: "
        f"{seconds:.2f}s -- {sink.records_seen} flow records "
        f"({sink.connections_seen} connections), "
        f"{throughput:,.0f} records/s, peak {peak_mib:.1f} MiB traced, "
        f"RSS {peak_rss_kib:,} KiB"
    )
    entry = telemetry.build_entry(
        "bench",
        kind="bench",
        params={"scale": args.scale, "flow_cap": args.flow_cap, "workers": args.workers},
        seconds=seconds,
        extra={
            "benchmark": "stream_trace",
            "git_rev": git_rev(),
            "flow_records": sink.records_seen,
            "connections": sink.connections_seen,
            "records_per_second": round(throughput, 1),
            "peak_mib": round(peak_mib, 2),
            "peak_rss_kib": peak_rss_kib,
        },
    )
    telemetry.append_entry(entry, args.ledger)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
