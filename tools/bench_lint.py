"""Benchmark the whole-program lint pass and record its wall time.

The project graph makes reprolint quadratic-curious: pass 1 walks every
module's AST several times (symbols, aliases, calls, thread entries)
and pass 2 runs fixpoint propagation over the call graph, so a careless
change can turn the blocking CI lint step from seconds into minutes.
This benchmark times one full ``--whole-program`` run over ``src`` and
``tools`` and appends the timing to the run ledger as a bench entry
(``jobs`` and ``repeat`` in ``params``), where the
``lint-wall-time-budget`` SLO in ``tools/slo.json`` turns it into a
gated budget -- the same ``iotls runs trend --slo`` gate that guards
streaming throughput.

Usage::

    PYTHONPATH=src python tools/bench_lint.py [--jobs N] [--repeat K] [--ledger PATH]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

try:
    from repro.lint import Baseline, run_lint
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.lint import Baseline, run_lint
from repro import telemetry
from repro.telemetry.provenance import git_rev

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = "lint_whole_program"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="process-pool width for the per-file pass (default serial, "
        "the configuration the CI lint job times)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="K",
        help="time K runs and record the fastest (default 1)",
    )
    parser.add_argument(
        "--ledger",
        default=telemetry.DEFAULT_LEDGER_PATH,
        metavar="PATH",
        help="run ledger to record the timing in "
        f"(default {telemetry.DEFAULT_LEDGER_PATH})",
    )
    args = parser.parse_args()

    baseline = Baseline.load(REPO_ROOT / "tools" / "lint_baseline.json")
    best_seconds = None
    report = None
    for _ in range(max(1, args.repeat)):
        started = perf_counter()
        report = run_lint(
            [REPO_ROOT / "src", REPO_ROOT / "tools"],
            root=REPO_ROOT,
            baseline=baseline,
            whole_program=True,
            jobs=args.jobs if args.jobs > 1 else None,
        )
        seconds = perf_counter() - started
        if best_seconds is None or seconds < best_seconds:
            best_seconds = seconds

    assert report is not None and best_seconds is not None
    entry = telemetry.build_entry(
        "bench",
        kind="bench",
        params={"jobs": args.jobs, "repeat": args.repeat},
        seconds=best_seconds,
        extra={
            "benchmark": BENCHMARK,
            "git_rev": git_rev(),
            "files_checked": report.files_checked,
            "violations": len(report.violations),
            "suppressed": len(report.suppressed),
        },
    )
    telemetry.append_entry(entry, args.ledger)
    print(
        f"{BENCHMARK}: {entry['seconds']}s for {report.files_checked} "
        f"file(s) (jobs={args.jobs}, violations={len(report.violations)}, "
        f"baselined={len(report.suppressed)})"
    )
    if not report.ok:
        print("note: lint is not clean; the blocking lint job will fail", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
