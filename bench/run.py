"""The repo benchmark: four workloads, end-to-end metrics, per-layer breakdown.

Usage::

    python3 bench/run.py                           # every workload, untraced
    python3 bench/run.py --traced                  # every workload, per-layer
    python3 bench/run.py --workload trace --seed 3 --seconds 12 --trace 0
    python3 bench/run.py --quick                   # one op per process
    python3 bench/run.py --compare A.json B.json   # two result sets vs bounds

Each run of a workload starts fresh processes.  An untraced run starts
:data:`SETUPS` of them one after another; each one is timed from spawn
to the end of one untimed warm-up op (``setup_s``), then runs a fixed
number of timed ops (:func:`ops_per_process`), timing the host's speed
(``bench/reference.py``) before the first op and after each one.  The
gated times are scaled to a host of the reference speed
(:func:`scaled_op_ms`).  A traced run starts untraced and traced
processes in turn, so the per-layer numbers and the tracing overhead
come from one run.  Every op's output is checked; an op that raises or
fails its check counts in ``failed``.

Human-readable lines go first (``workload metric value unit``); the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json`` untraced, its ``per_layer`` metrics traced).  Each
workload run is also recorded as a ``kind: "bench"`` run-ledger entry
and appended to the results file that ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any

import layers
import reference
import serve_load

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench"

WORKLOADS = ("trace", "campaign", "artifact", "serve")
#: Processes (and so set-ups) per untraced run; setup_s is their median.
SETUPS = 3
#: (untraced, traced) process pairs per traced run.
TRACED_PAIRS = 2
#: Every process of a run must end this many seconds after the run starts.
DEADLINE_S = 170
RESULTS_SCHEMA = "iotls-bench-results/1"

#: Typical op seconds of each workload on the shared 2-core VMs the
#: benchmark was written on.  They turn ``--seconds`` into a fixed op
#: count, so a faster program runs the same ops in less time, not more ops.
BASELINE_OP_S = {"trace": 0.6, "campaign": 1.5, "artifact": 0.85, "serve": 0.95}
#: Fewest timed ops per process: with fewer than 15 ops per untraced run,
#: the median of campaign's 1.5 s ops spread 0.08-0.12 over ten runs.
MIN_OPS_PER_PROCESS = 5

#: ``--compare`` bounds of op_p50_norm_ms, one per workload: max(0.10,
#: 2 x the widest relative IQR seen over two sets of ten seeded runs on a
#: 2-core VM).  The metric's one bound in ``BENCHMARK.json`` must hold for
#: every workload on noisier hosts too, so it is wider.
WORKLOAD_BOUNDS = {
    "op_p50_norm_ms": {"trace": 0.13, "campaign": 0.18, "artifact": 0.11, "serve": 0.11}
}


def ops_per_process(workload: str, seconds: float, processes: int) -> int:
    """Timed ops per process: ``seconds`` of work at the baseline, and at
    least :data:`MIN_OPS_PER_PROCESS`."""
    return max(MIN_OPS_PER_PROCESS, round(seconds / processes / BASELINE_OP_S[workload]))


def bound(metric: dict[str, Any], workload: str) -> float:
    """The regression bound ``--compare`` applies to ``metric`` on ``workload``."""
    return WORKLOAD_BOUNDS.get(metric["name"], {}).get(workload, metric["bound"])


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest of p99/p90 with at least ten samples beyond it."""
    for label, share in (("p99", 0.99), ("p90", 0.90)):
        if len(values) * (1 - share) >= 10:
            return label, statistics.quantiles(values, n=100)[round(share * 100) - 1]
    return None


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def child_env(workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Temp files stay in the checkout; a fixed hash seed keeps set and
    # dict layouts, and so timings, the same from run to run.
    env["TMPDIR"] = str(workdir)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_batch_process(
    workload: str, *, workdir: Path, seed: str, first: int, stride: int,
    ops: int, traced: bool, timeout: float,
) -> dict[str, Any]:
    spawned = perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
         "--seed", seed, "--first", str(first), "--stride", str(stride),
         "--ops", str(ops), "--traced", str(int(traced)), "--workdir", str(workdir)],
        cwd=workdir, env=child_env(workdir), stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(timeout, process.kill)
    watchdog.start()
    try:
        ready = process.stdout.readline()
        setup_s = perf_counter() - spawned
        rest = process.stdout.read()
    finally:
        process.wait()
        watchdog.cancel()
    if ready.strip() != "READY" or process.returncode != 0 or not rest.strip():
        raise RuntimeError(f"{workload} process failed (exit {process.returncode})")
    result = json.loads(rest.splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def run_process(
    workload: str, index: int, count: int, *, seed: str, ops: int,
    traced: bool, deadline: float, checker: serve_load.Checker,
) -> dict[str, Any]:
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise RuntimeError(f"{workload}: out of time before process {index}")
    workdir = WORK / f"{workload}-{os.getpid()}-{index}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "serve":
            return serve_load.run_server(
                root=ROOT, env=child_env(workdir), workdir=workdir, seed=seed,
                server=index, ops=ops, traced=traced, checker=checker, timeout=timeout,
            )
        return run_batch_process(
            workload, workdir=workdir, seed=seed, first=index, stride=count,
            ops=ops, traced=traced, timeout=timeout,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def cross_check(processes: list[dict[str, Any]]) -> None:
    """Ops with the same key must report the same digest, in any process."""
    first: dict[str, str] = {}
    for process in processes:
        for op in process["ops"]:
            if "digest" not in op:
                continue
            expected = first.setdefault(op["key"], op["digest"])
            if op["digest"] != expected:
                op["ok"] = False
                op["error"] = f"digest differs from an earlier op of {op['key']!r}"


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def op_seconds(processes: list[dict[str, Any]]) -> list[float]:
    return [op["seconds"] for process in processes for op in process["ops"]]


def reference_ms(processes: list[dict[str, Any]]) -> list[float]:
    return [
        op["reference_seconds"] * 1000 for process in processes for op in process["ops"]
    ]


def scaled_op_ms(processes: list[dict[str, Any]]) -> list[float]:
    """Each op's wall time on a host where the reference takes ``REFERENCE_MS``.

    An op is scaled by the reference timings just before and after it,
    so an episode of slowness that starts or ends within a run moves
    only the ops it overlaps.
    """
    return [
        op["seconds"] / op["reference_seconds"] * reference.REFERENCE_MS
        for process in processes
        for op in process["ops"]
    ]


def end_to_end(processes: list[dict[str, Any]]) -> dict[str, float]:
    # Set-up precedes the first reference timing, so it takes the run's
    # median host speed.
    scale = reference.REFERENCE_MS / statistics.median(reference_ms(processes))
    return {
        "setup_s": statistics.median(p["setup_s"] for p in processes) * scale,
        "op_p50_norm_ms": statistics.median(scaled_op_ms(processes)),
        "peak_rss_mib": statistics.median(p["peak_rss_kib"] for p in processes) / 1024,
    }


def serve_requests(process: dict[str, Any], cache: str) -> list[dict[str, Any]]:
    return [
        request
        for op in process["ops"]
        for request in op.get("requests", ())
        if request.get("cache") == cache
    ]


def queue_waits_ms(processes: list[dict[str, Any]]) -> list[float]:
    """Serve misses: client latency minus the server's run seconds."""
    return [
        (request["seconds"] - process["run_seconds"][request["config_digest"]]) * 1000
        for process in processes
        for request in serve_requests(process, "miss")
        if request["config_digest"] in process["run_seconds"]
    ]


def per_layer(
    traced: list[dict[str, Any]], untraced: list[dict[str, Any]]
) -> dict[str, float]:
    seconds = op_seconds(traced)
    ops, wall = len(seconds), sum(seconds)
    baseline = statistics.median(op_seconds(untraced))
    totals: dict[str, list[float]] = {}
    pool: dict[str, float] = {}
    for process in traced:
        layers.add(totals, process["layers"])
        for key, value in (process.get("pool") or {}).items():
            pool[key] = pool.get(key, 0) + value
    metrics: dict[str, float] = {}
    for name in layers.layer_names():
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls / ops
        metrics[f"{name}.self_us"] = self_s / calls * 1e6 if calls else 0.0
        metrics[f"{name}.share"] = self_s / wall
    dispatches = pool.get("dispatches", 0)
    metrics["parallel.pool.dispatches"] = dispatches / ops
    metrics["parallel.pool.dispatch_ms"] = pool.get("dispatch_seconds", 0.0) * 1000 / ops
    metrics["parallel.pool.reused_share"] = (
        pool.get("reused_dispatches", 0) / dispatches if dispatches else 0.0
    )
    # Shares come from each traced process's untimed warm-up op.
    shares = [process["handshake_shares"] for process in traced if "handshake_shares" in process]
    handshakes = metrics[f"{layers.HANDSHAKE}.calls"]
    metrics[f"{layers.HANDSHAKE}.distinct_input_share"] = (
        statistics.mean(s[0] for s in shares) if shares else 0.0
    )
    metrics[f"{layers.HANDSHAKE}.distinct_outcome_share"] = (
        statistics.mean(s[1] for s in shares) if shares else 0.0
    )
    metrics["tls.engine.us_per_handshake"] = baseline * 1e6 / handshakes if handshakes else 0.0
    waits = queue_waits_ms(untraced)
    metrics["serve.queue_wait_ms"] = statistics.median(waits) if waits else 0.0
    metrics["telemetry.ledger.entries"] = statistics.median(
        p.get("ledger_entries", 0) for p in traced + untraced
    )
    metrics["bench.coverage"] = sum(self_s for _, self_s in totals.values()) / wall
    metrics["bench.tracing_overhead"] = (
        statistics.median(scaled_op_ms(traced)) / statistics.median(scaled_op_ms(untraced)) - 1
    )
    return metrics


def details(workload: str, processes: list[dict[str, Any]]) -> dict[str, list[float]]:
    """Samples worth printing beside the metrics, as measured (not gated)."""
    samples = {
        "op_ms": [s * 1000 for s in op_seconds(processes)],
        "reference_ms": reference_ms(processes),
        "setup_ms": [p["setup_s"] * 1000 for p in processes],
    }
    ops = [op for process in processes for op in process["ops"]]
    if workload == "serve":
        for cache in ("hit", "miss"):
            samples[f"{cache}_ms"] = [
                request["seconds"] * 1000
                for process in processes
                for request in serve_requests(process, cache)
            ]
        samples["queue_wait_ms"] = queue_waits_ms(processes)
    for phase in ("export_s", "check_s"):
        values = [op["phases"][phase] * 1000 for op in ops if "phases" in op]
        if values:
            samples[phase.replace("_s", "_ms")] = values
    return samples


def run_workload(
    workload: str, *, seed: int, seconds: float, trace: bool, quick: bool, deadline: float
) -> dict[str, Any]:
    if trace:
        flags = [False, True] * (1 if quick else TRACED_PAIRS)
    else:
        flags = [False] * (1 if quick else SETUPS)
    ops = 1 if quick else ops_per_process(workload, seconds, len(flags))
    checker = serve_load.Checker()
    started = perf_counter()
    processes = [
        run_process(
            workload, index, len(flags), seed=str(seed), ops=ops,
            traced=flag, deadline=deadline, checker=checker,
        )
        for index, flag in enumerate(flags)
    ]
    cross_check(processes)
    untraced = [p for p, flag in zip(processes, flags) if not flag]
    traced = [p for p, flag in zip(processes, flags) if flag]
    ops = [op for process in processes for op in process["ops"]]
    failures = [op for op in ops if not op["ok"]]
    return {
        "attempted": len(ops),
        "failed": len(failures),
        "errors": sorted({op.get("error", "?") for op in failures})[:5],
        "metrics": per_layer(traced, untraced) if trace else end_to_end(untraced),
        "details": details(workload, untraced),
        "wall": perf_counter() - started,
        "peak_rss_kib": max(p["peak_rss_kib"] for p in processes),
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_summary(workload: str, summary: dict[str, Any], units: dict[str, str]) -> None:
    for name, value in summary["metrics"].items():
        print(f"{workload} {name} {value:.6g} {units[name]}")
    for name, values in summary["details"].items():
        if not values:
            continue
        q1, q2, q3 = quartiles(values)
        line = f"{workload} {name} p50 {q2:.6g} q1 {q1:.6g} q3 {q3:.6g}"
        high = tail(values)
        line += f" {high[0]} {high[1]:.6g}" if high else " tail -"
        print(f"  {line} n {len(values)}")
    print(f"  {workload} ops {summary['attempted']} failed_ops {summary['failed']}")
    for error in summary["errors"]:
        print(f"  {workload} error: {error}")


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def record_ledger(
    path: Path, workload: str, summary: dict[str, Any], params: dict[str, Any]
) -> None:
    """One ``kind: "bench"`` entry per workload run (``iotls runs list --kind bench``)."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro import telemetry

    metrics = summary["metrics"]
    # Traced runs: each layer's self seconds per op.
    phases = {
        name: metrics[f"{name}.self_us"] * metrics[f"{name}.calls"] / 1e6
        for name in layers.layer_names()
        if metrics.get(f"{name}.self_us")
    }
    entry = telemetry.build_entry(
        "bench",
        kind="bench",
        status="ok" if summary["failed"] == 0 else "error",
        params=params,
        seconds=summary["wall"],
        phases=phases or None,
        error=(
            {"type": "FailedOps", "message": f"{summary['failed']} op(s) failed"}
            if summary["failed"]
            else None
        ),
        extra={
            "benchmark": f"bench/{workload}",
            "metrics": metrics,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "peak_rss_kib": summary["peak_rss_kib"],
            "git_rev": git_rev(),
        },
    )
    telemetry.append_entry(entry, path)


def append_results(path: Path, run: dict[str, Any]) -> None:
    document = {"schema": RESULTS_SCHEMA, "runs": []}
    if path.exists():
        document = json.loads(path.read_text())
    document["runs"].append(run)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def compare(a_path: Path, b_path: Path, spec: dict[str, Any]) -> int:
    """Per (workload, end-to-end metric): B's median against A's, by :func:`bound`."""
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}

    def collect(path: Path) -> dict[tuple[str, str], list[float]]:
        values: dict[tuple[str, str], list[float]] = {}
        for run in json.loads(path.read_text())["runs"]:
            for workload, summary in run["workloads"].items():
                for name, value in summary["metrics"].items():
                    if name in bounds:
                        values.setdefault((workload, name), []).append(value)
        return values

    a, b = collect(a_path), collect(b_path)
    flagged = 0
    print(f"{'workload':9} {'metric':13} {'median A':>10} {'median B':>10} "
          f"{'worse':>7} {'bound':>6} {'iqr A':>6} {'iqr B':>6}  verdict")
    for workload, name in sorted(a.keys() & b.keys()):
        metric = bounds[name]
        ma, mb = statistics.median(a[workload, name]), statistics.median(b[workload, name])
        worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a[workload, name]), spread(b[workload, name])
        limit = bound(metric, workload)
        if max(sa, sb) > limit:
            verdict = "unresolved"
        elif worse > limit:
            verdict = "regressed"
        else:
            verdict = "ok"
        flagged += verdict != "ok"
        print(f"{workload:9} {name:13} {ma:10.4g} {mb:10.4g} {worse:+7.1%} "
              f"{limit:6.0%} {sa:6.1%} {sb:6.1%}  {verdict}")
    return 1 if flagged else 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true", help="one op per process")
    parser.add_argument("--out", type=Path, default=WORK / "results.json",
                        help="results file this run is appended to")
    parser.add_argument("--ledger", type=Path, default=ROOT / ".iotls" / "ledger.jsonl")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    compileall.compile_dir(ROOT / "src", quiet=1)

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    run: dict[str, Any] = {"seed": args.seed, "seconds": seconds, "trace": args.trace,
                           "quick": args.quick, "workloads": {}}
    try:
        for workload in workloads:
            summary = run_workload(
                workload, seed=args.seed, seconds=seconds, trace=bool(args.trace),
                quick=args.quick, deadline=perf_counter() + DEADLINE_S,
            )
            print_summary(workload, summary, units)
            params = {"workload": workload, "seed": args.seed, "seconds": seconds,
                      "trace": args.trace, "quick": args.quick}
            record_ledger(args.ledger, workload, summary, params)
            run["workloads"][workload] = {
                key: summary[key] for key in ("attempted", "failed", "metrics")
            }
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    append_results(args.out, run)
    print(f"results appended to {args.out}")

    attempted = sum(w["attempted"] for w in run["workloads"].values())
    failed = sum(w["failed"] for w in run["workloads"].values())
    if len(workloads) == 1:
        metrics = run["workloads"][workloads[0]]["metrics"]
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
