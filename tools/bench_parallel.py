"""Record serial-vs-parallel trace-generation timings in the run ledger.

Runs the passive-trace generator at a benchmark scale once serially and
once per requested worker count, verifies every parallel capture is
record-identical to the serial one, and appends one bench entry per
timing to the run ledger, with the workload shape (``scale``,
``workers``) in ``params``.  Each parallel entry also records its
``speedup_vs_serial`` and ``identical_to_serial``; the tool exits 1 if
any capture differs.  Telemetry is enabled for every run (serial
included, so timings compare like with like) and each parallel entry
records ``worker_skew`` -- the slowest shard's wall time over the mean,
from the stitched cross-worker span profile -- which the
``parallel-skew-ceiling`` SLO watches for straggler regressions.

Usage::

    PYTHONPATH=src python tools/bench_parallel.py [--scale 200] \
        [--workers 2 4] [--ledger PATH]
"""

from __future__ import annotations

import argparse
from time import perf_counter

import repro.telemetry as telemetry
from repro.longitudinal import PassiveTraceGenerator
from repro.parallel import pool_session
from repro.telemetry import Profiler
from repro.telemetry.provenance import git_rev

DEFAULT_SCALE = 200
SEED = "iotls-bench-parallel"


def _timed_generate(scale: int, workers: int):
    """One telemetry-isolated generation run: capture, seconds, skew,
    and the warm pool's reuse stats (``None`` for the serial run).

    The runtime is reset before each run so the span profile (and the
    worker skew derived from it) covers exactly this run.  Parallel runs
    execute inside a :func:`pool_session`, like real ``run_*`` calls;
    the timing includes the pool spawn, so speedups stay honest about
    the one-off warm-up cost the session amortises.
    """
    runtime = telemetry.get()
    runtime.reset()
    pool_stats = None
    started = perf_counter()
    if workers == 1:
        capture = PassiveTraceGenerator(scale=scale, seed=SEED).generate(workers=1)
    else:
        with pool_session(workers) as pool:
            capture = PassiveTraceGenerator(scale=scale, seed=SEED).generate(
                workers=workers
            )
            pool_stats = pool.stats()
    seconds = perf_counter() - started
    skew = Profiler.from_runtime(runtime).shard_skew()
    return capture, seconds, skew, pool_stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    parser.add_argument("--workers", type=int, nargs="+", default=[2, 4])
    parser.add_argument(
        "--ledger",
        default=telemetry.DEFAULT_LEDGER_PATH,
        metavar="PATH",
        help="run ledger to record the timings in "
        f"(default {telemetry.DEFAULT_LEDGER_PATH})",
    )
    args = parser.parse_args()
    rev = git_rev()

    def record(workers: int, seconds: float, extra: dict) -> None:
        entry = telemetry.build_entry(
            "bench",
            kind="bench",
            params={"scale": args.scale, "workers": workers},
            seconds=seconds,
            extra={"git_rev": rev, **extra},
        )
        telemetry.append_entry(entry, args.ledger)

    # Telemetry on for serial and parallel alike: both pay the same
    # instrumentation cost, so speedup ratios stay meaningful.
    telemetry.configure(enabled=True)

    serial_capture, serial_seconds, _, _ = _timed_generate(args.scale, workers=1)
    print(f"serial: {serial_seconds:.2f}s ({len(serial_capture)} flow records)")
    record(1, serial_seconds, {"benchmark": "bench_parallel/serial"})

    all_identical = True
    for workers in args.workers:
        capture, seconds, skew, pool_stats = _timed_generate(
            args.scale, workers=workers
        )
        identical = (
            capture.records == serial_capture.records
            and capture.revocation_events == serial_capture.revocation_events
        )
        all_identical = all_identical and identical
        speedup = serial_seconds / seconds if seconds > 0 else 0.0
        extra = {
            "benchmark": f"bench_parallel/workers{workers}",
            "speedup_vs_serial": round(speedup, 4),
            "identical_to_serial": identical,
        }
        if skew is not None:
            extra["worker_skew"] = skew["max_over_mean"]
        if pool_stats is not None:
            # How many dispatches rode an already-warm process (spawn
            # amortisation evidence; see repro.parallel.pool).
            extra["warm_pool_reused_dispatches"] = pool_stats["reused_dispatches"]
        record(workers, seconds, extra)
        skew_note = f", skew={skew['max_over_mean']:.2f}x" if skew is not None else ""
        print(
            f"workers={workers}: {seconds:.2f}s -- {speedup:.2f}x, "
            f"identical={identical}{skew_note}"
        )
    print(f"recorded {1 + len(args.workers)} bench entries in {args.ledger}")
    return 0 if all_identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
