"""Scaled serial-vs-parallel benchmark for passive-trace generation.

Runs the generator at a scale large enough that worker-process startup
(spawn + :mod:`repro` import) amortises, once serially and once through
the sharded executor at ``--workers N``.  Prints the measured speedup
and asserts the two captures are identical -- timing *and* determinism
in one pass.  ``tools/bench_parallel.py`` runs the same workload
standalone and records each timing as a bench entry in the run ledger.
"""

from __future__ import annotations

from time import perf_counter

from repro.longitudinal import PassiveTraceGenerator

#: High enough that spawn/import overhead is small against real work.
BENCH_SCALE = 200
BENCH_SEED = "iotls-bench-parallel"


def test_bench_parallel_trace(benchmark, workers):
    parallel_workers = max(workers, 2)

    started = perf_counter()
    serial = PassiveTraceGenerator(scale=BENCH_SCALE, seed=BENCH_SEED).generate()
    serial_seconds = perf_counter() - started

    def _generate_parallel():
        return PassiveTraceGenerator(scale=BENCH_SCALE, seed=BENCH_SEED).generate(
            workers=parallel_workers
        )

    started = perf_counter()
    parallel = benchmark.pedantic(_generate_parallel, rounds=1, iterations=1)
    parallel_seconds = perf_counter() - started

    speedup = serial_seconds / parallel_seconds if parallel_seconds > 0 else 0.0
    print(
        f"\nserial {serial_seconds:.2f}s vs {parallel_workers} workers "
        f"{parallel_seconds:.2f}s -- {speedup:.2f}x speedup "
        f"({len(serial)} flow records)"
    )
    assert serial.records == parallel.records
    assert serial.revocation_events == parallel.revocation_events
