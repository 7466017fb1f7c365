"""Command-line interface for the IoTLS reproduction.

Subcommands map one-to-one onto the paper's experiments:

* ``audit``        -- the full active campaign (Tables 5/6/7 + probing)
* ``probe``        -- root-store exploration of one device (Table 9 row)
* ``amenability``  -- the Table 4 library survey
* ``trace``        -- generate the longitudinal capture and summarise
                      Figures 1-3, adoption events, Table 8
* ``fingerprint``  -- the Figure 5 shared-fingerprint analysis
* ``devices``      -- list the Table 1 catalog
* ``check``        -- audit a run against the paper's published values
                      (drift report; non-zero exit on drift)
* ``lint``         -- reprolint: static invariant checks over the
                      repo's own source (see ``docs/static-analysis.md``)
* ``telemetry-demo`` -- exercise the telemetry subsystem end-to-end
* ``runs``         -- query the run ledger: ``list``/``show``/``diff``/
                      ``trend``/``lookup``/``gc`` over every recorded run

The experiment subcommands are thin wrappers over :mod:`repro.api`:
each builds a :class:`repro.api.RunConfig`, calls the matching
``run_*`` function, and renders the typed result.  Shared run flags
(``--telemetry`` / ``--metrics-out`` / ``--workers`` / ``--manifest`` /
``--profile*`` / ``--json``) are declared once by
:func:`add_run_options` and read back via :func:`resolve_run_options`;
the :data:`_RUN_OPTIONS` table is the single source of truth for which
command supports which flag.

``trace`` additionally supports the streaming pipeline: ``--stream``
runs the analyses in bounded memory without materialising the capture,
and ``--stream-out PATH`` exports the record stream as JSON Lines
(consumable by ``iotls check --artifact PATH.jsonl``).
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import dataclass
from typing import Sequence

from . import telemetry
from .analysis import render_table, table1_rows
from .analysis.export import write_json

__all__ = [
    "main",
    "build_parser",
    "add_run_options",
    "resolve_run_options",
    "RunOptions",
]

#: Which shared run flags each subcommand supports -- the one table the
#: parser builder and option resolver both read.
_RUN_OPTIONS: dict[str, frozenset[str]] = {
    "audit": frozenset(
        {
            "telemetry",
            "metrics",
            "workers",
            "manifest",
            "profile",
            "json",
            "progress",
            "ledger",
        }
    ),
    "probe": frozenset({"telemetry", "metrics", "json", "ledger"}),
    "amenability": frozenset({"telemetry"}),
    "trace": frozenset(
        {
            "telemetry",
            "metrics",
            "workers",
            "manifest",
            "profile",
            "json",
            "progress",
            "ledger",
        }
    ),
    "fingerprint": frozenset({"telemetry"}),
    "devices": frozenset({"telemetry"}),
    "report": frozenset(
        {"telemetry", "metrics", "workers", "manifest", "profile", "progress", "ledger"}
    ),
    "pcap": frozenset({"telemetry", "workers", "manifest", "ledger"}),
    "check": frozenset({"telemetry", "workers", "json", "ledger"}),
    "lint": frozenset(),
    "telemetry-demo": frozenset({"metrics"}),
    "runs": frozenset(),
    "serve": frozenset({"workers", "ledger"}),
}

#: Per-command ``--json`` help text (the flag means a different artifact
#: for each command).
_JSON_HELP = {
    "audit": "export full results as JSON",
    "probe": "export the probe report as JSON",
    "trace": "export per-connection records as JSON",
    "check": "export the drift report as JSON",
}


def add_run_options(parser: argparse.ArgumentParser, command: str) -> None:
    """Attach the shared run flags ``command`` supports to ``parser``."""
    supported = _RUN_OPTIONS[command]
    if "telemetry" in supported:
        parser.add_argument(
            "--telemetry",
            action="store_true",
            help="enable the telemetry subsystem (metrics, spans, events)",
        )
    if "metrics" in supported:
        parser.add_argument(
            "--metrics-out",
            metavar="PATH",
            help="write the run's metrics snapshot as JSON (implies --telemetry)",
        )
    if "workers" in supported:
        parser.add_argument(
            "--workers",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for device sharding (default 1 = in-process); "
            "output is identical for any N",
        )
    if "manifest" in supported:
        parser.add_argument(
            "--manifest",
            metavar="PATH",
            help="write the run manifest (provenance document) as canonical JSON; "
            "the manifest digest is always printed",
        )
    if "profile" in supported:
        parser.add_argument(
            "--profile",
            action="store_true",
            help="print a hot-span profile after the run (implies --telemetry)",
        )
        parser.add_argument(
            "--profile-out",
            metavar="PATH",
            help="write the profile as JSON (implies --profile)",
        )
        parser.add_argument(
            "--profile-stacks",
            metavar="PATH",
            help="write flamegraph-ready collapsed stacks (implies --profile)",
        )
    if "progress" in supported:
        parser.add_argument(
            "--progress",
            action="store_true",
            help="print throttled live-progress heartbeats to stderr "
            "(implies --telemetry)",
        )
        parser.add_argument(
            "--heartbeat-out",
            metavar="PATH",
            help="write the machine-readable run-health stream as JSONL "
            f"(schema {telemetry.HEALTH_STREAM_SCHEMA}; implies --telemetry)",
        )
        parser.add_argument(
            "--heartbeat-interval",
            type=float,
            default=1.0,
            metavar="SECONDS",
            help="seconds between heartbeats / resource samples (default 1.0)",
        )
    if "json" in supported:
        parser.add_argument("--json", metavar="PATH", help=_JSON_HELP[command])
    if "ledger" in supported:
        parser.add_argument(
            "--ledger",
            metavar="PATH",
            default=None,
            help=f"append this run's {telemetry.LEDGER_SCHEMA} entry to PATH "
            f"(default {telemetry.DEFAULT_LEDGER_PATH}); query it with `iotls runs`",
        )
        parser.add_argument(
            "--no-ledger",
            action="store_true",
            help="do not record this run in the run ledger",
        )


@dataclass(frozen=True)
class RunOptions:
    """The resolved shared run flags for one invocation."""

    command: str
    telemetry: bool = False
    metrics_out: str | None = None
    workers: int = 1
    manifest: str | None = None
    profile: bool = False
    profile_out: str | None = None
    profile_stacks: str | None = None
    json: str | None = None
    progress: bool = False
    heartbeat_out: str | None = None
    heartbeat_interval: float = 1.0
    ledger: str | None = None
    no_ledger: bool = False

    @property
    def profile_on(self) -> bool:
        return bool(self.profile or self.profile_out or self.profile_stacks)

    @property
    def progress_on(self) -> bool:
        return bool(self.progress or self.heartbeat_out)

    @property
    def ledger_path(self) -> str | None:
        """The resolved run-ledger destination (None = ledgering off)."""
        if self.no_ledger:
            return None
        return self.ledger or telemetry.DEFAULT_LEDGER_PATH

    @property
    def telemetry_on(self) -> bool:
        return bool(
            self.telemetry
            or self.metrics_out is not None
            or self.profile_on
            or self.progress_on
            or self.command == "telemetry-demo"
        )


def resolve_run_options(args: argparse.Namespace) -> RunOptions:
    """Read the shared flags back off a parsed namespace (defaults for
    flags the command does not declare)."""
    return RunOptions(
        command=args.command,
        telemetry=bool(getattr(args, "telemetry", False)),
        metrics_out=getattr(args, "metrics_out", None),
        workers=getattr(args, "workers", 1),
        manifest=getattr(args, "manifest", None),
        profile=bool(getattr(args, "profile", False)),
        profile_out=getattr(args, "profile_out", None),
        profile_stacks=getattr(args, "profile_stacks", None),
        json=getattr(args, "json", None),
        progress=bool(getattr(args, "progress", False)),
        heartbeat_out=getattr(args, "heartbeat_out", None),
        heartbeat_interval=getattr(args, "heartbeat_interval", 1.0),
        ledger=getattr(args, "ledger", None),
        no_ledger=bool(getattr(args, "no_ledger", False)),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iotls",
        description="IoTLS reproduction: TLS measurement experiments for consumer IoT devices",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    audit = subparsers.add_parser("audit", help="run the full active-experiment campaign")
    audit.add_argument("--no-passthrough", action="store_true", help="skip the passthrough pass")
    add_run_options(audit, "audit")

    probe = subparsers.add_parser("probe", help="probe one device's root store")
    probe.add_argument("device", help='device name, e.g. "LG TV"')
    add_run_options(probe, "probe")

    amenability = subparsers.add_parser(
        "amenability", help="survey library alert behaviour (Table 4)"
    )
    add_run_options(amenability, "amenability")

    trace = subparsers.add_parser("trace", help="generate the 27-month passive capture")
    trace.add_argument("--scale", type=int, default=40, help="connections per weight-unit-month")
    trace.add_argument(
        "--seed",
        default="iotls-passive",
        help="generator seed (default iotls-passive); recorded in JSON metadata",
    )
    trace.add_argument(
        "--stream",
        action="store_true",
        help="run the analyses in streaming mode (bounded memory; the capture "
        "is never materialised, so --json is unavailable)",
    )
    trace.add_argument(
        "--stream-out",
        metavar="PATH",
        help="export the record stream as JSON Lines (implies --stream); "
        "audit it later with `iotls check --artifact PATH`",
    )
    trace.add_argument(
        "--flow-cap",
        type=int,
        default=None,
        metavar="N",
        help="split batched flow records to at most N connections each "
        "(record volume then tracks connection volume)",
    )
    add_run_options(trace, "trace")

    fingerprint = subparsers.add_parser(
        "fingerprint", help="shared-fingerprint analysis (Figure 5)"
    )
    add_run_options(fingerprint, "fingerprint")

    devices = subparsers.add_parser("devices", help="list the device catalog (Table 1)")
    add_run_options(devices, "devices")

    report = subparsers.add_parser(
        "report", help="run everything and write a full markdown report"
    )
    report.add_argument("--out", default="REPORT.md", help="output path (default REPORT.md)")
    report.add_argument("--scale", type=int, default=40, help="passive-trace scale")
    add_run_options(report, "report")

    pcap = subparsers.add_parser(
        "pcap", help="export the passive capture's ClientHellos as a pcap file"
    )
    pcap.add_argument("--out", default="iotls.pcap", help="output path (default iotls.pcap)")
    pcap.add_argument("--scale", type=int, default=10, help="passive-trace scale")
    pcap.add_argument("--limit", type=int, default=None, help="max packets")
    add_run_options(pcap, "pcap")

    check = subparsers.add_parser(
        "check", help="audit the reproduction against the paper's published values"
    )
    check.add_argument(
        "--scale",
        type=int,
        default=1,
        help="passive-trace scale for the fresh audit run (default 1)",
    )
    check.add_argument(
        "--seed", default="iotls-passive", help="trace seed (default iotls-passive)"
    )
    check.add_argument(
        "--expected",
        metavar="PATH",
        help="expectations file (default: the packaged expected/paper.json)",
    )
    check.add_argument(
        "--artifact",
        metavar="PATH",
        help="audit a previously exported trace artifact (`iotls trace --json` "
        "document or `--stream-out` JSONL stream) instead of running fresh "
        "experiments (capture-derived cells only; the rest are reported as "
        "skipped)",
    )
    add_run_options(check, "check")

    lint = subparsers.add_parser(
        "lint",
        help="run reprolint's static invariant checks over the repo source",
    )
    from .lint.cli import configure_parser as configure_lint_parser

    configure_lint_parser(lint)
    add_run_options(lint, "lint")

    demo = subparsers.add_parser(
        "telemetry-demo", help="smoke-test the telemetry subsystem on a small trace"
    )
    demo.add_argument("--scale", type=int, default=2, help="passive-trace scale (default 2)")
    add_run_options(demo, "telemetry-demo")

    serve = subparsers.add_parser(
        "serve",
        help="run the resident fleet service (HTTP/JSON, content-addressed "
        "result cache over the run ledger)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8738,
        help="TCP port (default 8738; 0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=8,
        metavar="N",
        help="bounded run-queue capacity; beyond it requests get 429 "
        "(default 8)",
    )
    serve.add_argument(
        "--executors",
        type=int,
        default=2,
        metavar="N",
        help="concurrent run executors (default 2)",
    )
    serve.add_argument(
        "--artifact-dir",
        default=".iotls/serve",
        metavar="PATH",
        help="where computed run artifacts land (default .iotls/serve)",
    )
    serve.add_argument(
        "--access-log",
        metavar="PATH",
        help=f"write the {telemetry.ACCESS_LOG_SCHEMA} access log as JSONL",
    )
    serve.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between per-request heartbeats in the access log "
        "(default 1.0)",
    )
    serve.add_argument(
        "--retry-after",
        type=int,
        default=1,
        metavar="SECONDS",
        help="Retry-After seconds advertised on 429 responses (default 1)",
    )
    add_run_options(serve, "serve")

    runs = subparsers.add_parser(
        "runs",
        help="query the run ledger (cross-run history of every iotls run)",
    )
    runs.add_argument(
        "--ledger",
        default=telemetry.DEFAULT_LEDGER_PATH,
        metavar="PATH",
        help=f"run-ledger file to query (default {telemetry.DEFAULT_LEDGER_PATH})",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    runs_list = runs_sub.add_parser("list", help="list ledger entries, newest last")
    # dest avoids clobbering the top-level subcommand, which argparse
    # also stores as `command` on the shared namespace.
    runs_list.add_argument(
        "--command", dest="command_filter", help="only entries for this command"
    )
    runs_list.add_argument("--device", help="only runs whose params.device matches")
    runs_list.add_argument(
        "--host", metavar="KEY", help="only entries whose host-key starts with KEY"
    )
    runs_list.add_argument(
        "--status", choices=telemetry.ledger.ENTRY_STATUSES, help="only this status"
    )
    runs_list.add_argument(
        "--kind", choices=telemetry.ledger.ENTRY_KINDS, help="only this entry kind"
    )

    runs_show = runs_sub.add_parser("show", help="show one entry by manifest digest")
    runs_show.add_argument("digest", help="manifest digest (prefix accepted)")

    runs_diff = runs_sub.add_parser(
        "diff",
        help="compare two entries: manifest identity + deterministic deltas "
        "(exit 1 on drift)",
    )
    runs_diff.add_argument(
        "digests",
        nargs="*",
        metavar="DIGEST",
        help="two manifest-digest prefixes (default: the two most recent "
        "manifest-carrying run entries)",
    )

    runs_trend = runs_sub.add_parser(
        "trend",
        help="cross-run records/s and peak-RSS trajectories per host fingerprint",
    )
    runs_trend.add_argument(
        "--slo",
        metavar="PATH",
        help="also evaluate the SLO policy against the ledger's bench entries; "
        "a failing blocking SLO exits 1",
    )
    runs_trend.add_argument(
        "--json", metavar="PATH", help=f"write the {telemetry.TREND_SCHEMA} report as JSON"
    )

    runs_lookup = runs_sub.add_parser(
        "lookup",
        help="config digest -> most recent matching manifest digest + artifacts "
        "(the content-addressed result-cache primitive)",
    )
    runs_lookup.add_argument("digest", help="config digest (prefix accepted)")

    runs_gc = runs_sub.add_parser(
        "gc", help="prune entries whose recorded artifacts have vanished"
    )
    runs_gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be pruned without rewriting the ledger",
    )

    return parser


def _print_manifest(result, opts: RunOptions) -> None:
    """Print the run's manifest digest; write the document with --manifest."""
    print(f"\nrun manifest digest: {result.manifest_digest}")
    if opts.manifest:
        path = telemetry.write_manifest(result.manifest, opts.manifest)
        print(f"wrote run manifest {path}")


def _print_health(result, opts: RunOptions) -> None:
    """One-line run-health summary for progress/heartbeat runs."""
    health = getattr(result, "health", None)
    if health is None:
        return
    line = (
        f"\nrun health: {health['done']:,} units in {health['seconds']:.2f}s "
        f"({health['rate']:,.0f}/s, {health['heartbeats']} heartbeat(s))"
    )
    resources = health.get("resources")
    if resources:
        line += (
            f"; peak RSS {resources['peak_rss_kib']:,} KiB, "
            f"peak traced heap {resources['peak_traced_bytes']:,} B"
        )
    print(line)
    if opts.heartbeat_out:
        print(f"wrote run-health stream {opts.heartbeat_out}")


def _cmd_audit(args, opts: RunOptions) -> int:
    from . import api

    result = api.run_audit(
        api.RunConfig(
            workers=opts.workers,
            include_passthrough=not args.no_passthrough,
            progress=opts.progress,
            heartbeat_interval=opts.heartbeat_interval,
            ledger=opts.ledger_path,
        ),
        json_path=opts.json,
        heartbeat_path=opts.heartbeat_out,
    )
    results = result.results
    rows = [
        report.table7_row()
        for report in results.interception
        if report.vulnerable
    ]
    print("Vulnerable devices (Table 7):")
    print(render_table(["Device", "NoValidation", "InvalidBC", "WrongHostname", "Vuln/Total"], rows))
    print("\nDowngrading devices (Table 5):")
    print(
        render_table(
            ["Device", "Failed", "Incomplete", "Behavior", "Ratio"],
            [report.table5_row() for report in results.downgrade if report.downgrades],
        )
    )
    print("\nRoot-store probing (Table 9):")
    print(
        render_table(
            ["Device", "Common", "Deprecated"],
            [report.table9_row() for report in results.amenable_probe_reports],
        )
    )
    print(
        f"\nsummary: {results.vulnerable_device_count} vulnerable, "
        f"{results.sensitive_leak_count} leaking sensitive data, "
        f"{results.downgrading_device_count} downgrading, "
        f"{results.old_version_device_count} with old-version support, "
        f"{len(results.amenable_probe_reports)} probe-amenable"
    )
    if results.passthrough:
        extra = statistics.mean(outcome.extra_fraction for outcome in results.passthrough)
        print(f"passthrough: {extra:.1%} extra destinations, "
              f"{sum(o.new_validation_failures for o in results.passthrough)} new failures")
    if "campaign_json" in result.artifacts:
        print(f"\nwrote {result.artifacts['campaign_json']}")
    _print_health(result, opts)
    _print_manifest(result, opts)
    return 0


def _cmd_probe(args, opts: RunOptions) -> int:
    from . import api

    try:
        result = api.run_probe(
            args.device, api.RunConfig(ledger=opts.ledger_path), json_path=opts.json
        )
    except api.UnknownDeviceError as exc:
        print(f"error: unknown device {exc.device!r}; try `iotls devices`", file=sys.stderr)
        return 2
    except api.DeviceNotProbeableError as exc:
        print(f"error: {exc.device} {exc.reason}", file=sys.stderr)
        return 2
    if not result.amenable:
        print(f"{result.device} is not amenable: {result.report.calibration.reason}")
        return 1
    name, common, deprecated = result.report.table9_row()
    print(f"{name}: common {common}, deprecated {deprecated}")
    if result.distrusted_but_trusted:
        print(
            "explicitly distrusted CAs still trusted: "
            f"{', '.join(result.distrusted_but_trusted)}"
        )
    if "probe_json" in result.artifacts:
        print(f"wrote {result.artifacts['probe_json']}")
    return 0


def _cmd_amenability(_args, _opts: RunOptions) -> int:
    from .core import survey_all_libraries

    rows = [(*row.row(), "yes" if row.amenable else "no") for row in survey_all_libraries()]
    print(render_table(["Library", "Known CA, bad signature", "Unknown CA", "Amenable"], rows))
    return 0


def _cmd_trace(args, opts: RunOptions) -> int:
    from . import api

    streaming = bool(args.stream or args.stream_out)
    if streaming and opts.json:
        print(
            "error: --stream/--stream-out and --json are mutually exclusive; "
            "streaming runs export JSON Lines via --stream-out",
            file=sys.stderr,
        )
        return 2
    result = api.run_trace(
        api.RunConfig(
            scale=args.scale,
            seed=args.seed,
            workers=opts.workers,
            stream=streaming,
            flow_cap=args.flow_cap,
            progress=opts.progress,
            heartbeat_interval=opts.heartbeat_interval,
            ledger=opts.ledger_path,
        ),
        json_path=opts.json,
        stream_path=args.stream_out,
        heartbeat_path=opts.heartbeat_out,
    )
    analysis = result.analysis
    print(f"generated {analysis.connections:,} connections ({analysis.flow_records} flow records, "
          f"{analysis.dataset.device_count} devices)")
    versions, insecure, strong = analysis.versions, analysis.insecure, analysis.strong
    print(f"Figure 1: {len(versions.shown_devices())} devices shown, "
          f"{len(versions.hidden_devices())} TLS1.2-exclusive")
    print(f"Figure 2: {len(insecure.shown_devices())} insecure-advertisers, "
          f"{len(insecure.hidden_devices())} clean")
    print(f"Figure 3: {len(strong.hidden_devices())} always-forward-secret devices")
    print("adoption events:")
    for event in analysis.adoption_events:
        print(f"  {event.describe()}")
    summary = analysis.revocation
    print(f"Table 8: CRL {len(summary.crl_devices)}, OCSP {len(summary.ocsp_devices)}, "
          f"stapling {len(summary.stapling_devices)}, "
          f"never {len(summary.non_checking_devices)}")
    print(analysis.comparison.summary())
    if "records_json" in result.artifacts:
        print(f"wrote {result.artifacts['records_json']}")
    if "records_jsonl" in result.artifacts:
        print(f"wrote {result.artifacts['records_jsonl']}")
    _print_health(result, opts)
    _print_manifest(result, opts)
    return 0


def _cmd_fingerprint(_args, _opts: RunOptions) -> int:
    from .fingerprint import (
        build_reference_database,
        build_shared_graph,
        collect_device_fingerprints,
    )
    from .testbed import Testbed

    testbed = Testbed()
    collected = collect_device_fingerprints(testbed)
    graph = build_shared_graph(collected, build_reference_database())
    multi = sum(1 for c in collected if c.multiple_instances)
    print(f"{len(collected)} devices fingerprinted: "
          f"{len(collected) - multi} single-instance, {multi} multi-instance")
    print(f"{len(graph.sharing_devices())} devices share a fingerprint with others")
    for cluster in sorted(graph.device_clusters(), key=len, reverse=True):
        print(f"  cluster: {', '.join(sorted(cluster))}")
    openssl = graph.devices_sharing_with_application("openssl")
    print(f"stock-OpenSSL matches: {', '.join(sorted(openssl))}")
    return 0


def _cmd_devices(_args, _opts: RunOptions) -> int:
    print(render_table(["Category", "Device", "Passive-only"], table1_rows()))
    return 0


def _cmd_report(args, opts: RunOptions) -> int:
    from . import api

    result = api.run_report(
        api.RunConfig(
            scale=args.scale,
            workers=opts.workers,
            progress=opts.progress,
            heartbeat_interval=opts.heartbeat_interval,
            ledger=opts.ledger_path,
        ),
        out=args.out,
        progress=print,
        heartbeat_path=opts.heartbeat_out,
    )
    print(f"wrote {result.path}")
    _print_health(result, opts)
    _print_manifest(result, opts)
    return 0


def _cmd_pcap(args, opts: RunOptions) -> int:
    from . import api

    result = api.run_pcap(
        api.RunConfig(
            scale=args.scale,
            workers=opts.workers,
            ledger=opts.ledger_path,
        ),
        out=args.out,
        limit=args.limit,
    )
    print(f"wrote {result.packets_written} packets to {result.path} "
          f"({result.size_bytes:,} bytes)")
    _print_manifest(result, opts)
    return 0


def _cmd_check(args, opts: RunOptions) -> int:
    """Audit the reproduction against the paper's published values.

    Exit codes: 0 = no drift, 1 = drift detected, 2 = usage error
    (unreadable artifact or expectations file).
    """
    from . import api
    from .analysis.drift import audit_artifact

    try:
        if args.artifact:
            print(f"auditing artifact {args.artifact} (capture-derived cells only)\n")
            report = audit_artifact(args.artifact, expectations_path=args.expected)
        else:
            print(
                f"auditing fresh run (scale {args.scale}, seed {args.seed!r}, "
                f"workers {opts.workers})...\n"
            )
            # The fresh audit is a registered run (`api.run_check`): it
            # appends its own check ledger entry, drift verdict included.
            result = api.run_check(
                api.RunConfig(
                    scale=args.scale,
                    seed=args.seed,
                    workers=opts.workers,
                    ledger=opts.ledger_path,
                ),
                expected_path=args.expected,
            )
            report = result.report
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if args.artifact and opts.ledger_path is not None:
        # The drift verdict is run history worth querying later: `iotls
        # runs list --status error` surfaces past drifts per host.
        telemetry.append_entry(
            telemetry.build_entry(
                "check",
                kind="check",
                status="ok" if report.ok else "error",
                params={
                    "scale": args.scale,
                    "seed": args.seed,
                    "artifact": args.artifact,
                },
                workers=opts.workers,
                drift={
                    "ok": report.ok,
                    "drifted": sorted(
                        cell.expectation.id for cell in report.drifted
                    ),
                    "cells": len(report.cells),
                },
                error=(
                    None
                    if report.ok
                    else {
                        "type": "DriftDetected",
                        "message": f"{len(report.drifted)} cell(s) deviate",
                    }
                ),
            ),
            opts.ledger_path,
        )
    if opts.json:
        path = write_json(report.to_dict(), opts.json)
        print(f"\nwrote drift report {path}")
    if not report.ok:
        cells = ", ".join(cell.expectation.id for cell in report.drifted)
        print(f"\nDRIFT: {len(report.drifted)} cell(s) deviate: {cells}", file=sys.stderr)
        return 1
    print("\npaper reproduction healthy: no drift detected")
    return 0


def _cmd_lint(args, _opts: RunOptions) -> int:
    """Run reprolint; exit 0 clean, 1 violations, 2 usage error."""
    from .lint.cli import run_from_args

    return run_from_args(args)


def _cmd_telemetry_demo(args, _opts: RunOptions) -> int:
    """Exercise metrics, spans, and events end-to-end on a small trace."""
    from .longitudinal import PassiveTraceGenerator
    from .telemetry import to_prometheus

    runtime = telemetry.get()
    with runtime.tracer.span("demo.run", scale=args.scale):
        capture = PassiveTraceGenerator(scale=args.scale).generate()
    runtime.events.info("demo.complete", flow_records=len(capture.records))

    registry = runtime.registry
    handshakes = registry.get("iotls_handshakes_total")
    print(
        f"telemetry demo: {len(capture.records)} flow records generated, "
        f"{int(handshakes.total()) if handshakes else 0} handshakes counted, "
        f"{len(runtime.tracer.finished)} spans finished, "
        f"{len(runtime.events)} events buffered"
    )
    print("\nprometheus sample (first 12 lines):")
    for line in to_prometheus(registry).splitlines()[:12]:
        print(f"  {line}")
    return 0


def _runs_list(args, entries) -> int:
    selected = telemetry.filter_entries(
        entries,
        command=args.command_filter,
        device=args.device,
        host=args.host,
        status=args.status,
        kind=args.kind,
    )
    print(telemetry.render_entries(selected))
    return 0


def _runs_show(args, entries) -> int:
    entry = telemetry.find_entry(entries, args.digest)
    if entry is None:
        print(f"no ledger entry with manifest digest {args.digest!r}", file=sys.stderr)
        return 1
    print(telemetry.render_entry(entry))
    return 0


def _runs_diff(args, entries) -> int:
    if len(args.digests) not in (0, 2):
        print("error: diff takes exactly two digests (or none)", file=sys.stderr)
        return 2
    if args.digests:
        pair = [telemetry.find_entry(entries, digest) for digest in args.digests]
        for digest, entry in zip(args.digests, pair):
            if entry is None:
                print(f"no ledger entry matching {digest!r}", file=sys.stderr)
                return 2
    else:
        with_manifest = [
            entry
            for entry in entries
            if entry.get("kind") == "run" and entry.get("manifest_digest")
        ]
        if len(with_manifest) < 2:
            print(
                "ledger holds fewer than two manifest-carrying run entries",
                file=sys.stderr,
            )
            return 2
        pair = with_manifest[-2:]
    diff = telemetry.diff_entries(pair[0], pair[1])
    print(telemetry.render_diff(diff))
    return 1 if diff["drift"] else 0


def _runs_trend(args, entries) -> int:
    slos = None
    if args.slo:
        try:
            slos = telemetry.load_slo_policy(args.slo)
        except (OSError, telemetry.SloPolicyError) as exc:
            print(f"bad SLO policy {args.slo}: {exc}", file=sys.stderr)
            return 2
    report = telemetry.ledger_trend(entries, slos=slos)
    print(telemetry.render_trend_report(report))
    for key, host in report["hosts"].items():
        fingerprint = host["host"]
        shown = (
            f"{fingerprint.get('platform')}/{fingerprint.get('machine')}, "
            f"{fingerprint.get('cpu_count')} core(s)"
            if isinstance(fingerprint, dict)
            else "no fingerprint"
        )
        print(f"\nhost {key} ({shown}): {host['entries']} bench entr(ies)")
        for benchmark, series in host["series"].items():
            latest = series[-1]
            extras = ", ".join(
                f"{metric}={latest[metric]:,g}"
                for metric in ("records_per_second", "peak_rss_kib")
                if metric in latest
            )
            print(
                f"  {benchmark}: {len(series)} point(s), latest "
                f"{latest['seconds']}s" + (f" ({extras})" if extras else "")
            )
    verdicts = report.get("slo_verdicts", [])
    if verdicts:
        print("\nSLO verdicts:")
        print(telemetry.render_verdicts(verdicts))
    if args.json:
        path = write_json(report, args.json)
        print(f"\nwrote trend report {path}")
    if any(v["status"] == "fail" and v["blocking"] for v in verdicts):
        return 1
    return 0


def _runs_lookup(args, entries) -> int:
    entry = telemetry.lookup_config(entries, args.digest)
    if entry is None:
        print(f"no successful run with config digest {args.digest!r}", file=sys.stderr)
        return 1
    print(f"config digest:   {entry['config_digest']}")
    print(f"manifest digest: {entry['manifest_digest']}")
    print(f"command:         {entry.get('command')} ({entry.get('date')})")
    for role, info in sorted((entry.get("artifacts") or {}).items()):
        print(f"artifact {role}: {info.get('path')} (blake2s {info.get('blake2s')})")
    return 0


def _runs_gc(args, entries) -> int:
    kept, pruned = telemetry.gc_entries(entries)
    if not pruned:
        print(f"nothing to prune ({len(kept)} entr(ies) intact)")
        return 0
    for entry in pruned:
        roles = ", ".join(sorted((entry.get("artifacts") or {})))
        print(
            f"prune: {entry.get('command')} {entry.get('date')} "
            f"(manifest {entry.get('manifest_digest')}; artifacts gone: {roles})"
        )
    if args.dry_run:
        print(f"dry run: would prune {len(pruned)} of {len(entries)} entr(ies)")
        return 0
    telemetry.rewrite_ledger(kept, args.ledger)
    print(f"pruned {len(pruned)} entr(ies); {len(kept)} kept")
    return 0


def _cmd_serve(args, opts: RunOptions) -> int:
    """Run the resident fleet service until interrupted.

    Exit codes: 0 = clean shutdown, 2 = usage error (serve needs a
    ledger: it is the result cache's index).
    """
    import asyncio

    from .serve import ServeConfig, serve

    if opts.ledger_path is None:
        print(
            "error: iotls serve needs a run ledger (it is the result "
            "cache's index); drop --no-ledger",
            file=sys.stderr,
        )
        return 2
    config = ServeConfig(
        host=args.host,
        port=args.port,
        queue_size=args.queue_size,
        executors=args.executors,
        workers=opts.workers,
        ledger=opts.ledger_path,
        artifact_dir=args.artifact_dir,
        access_log=args.access_log,
        heartbeat_interval=args.heartbeat_interval,
        retry_after=args.retry_after,
    )
    try:
        asyncio.run(serve(config))
    except KeyboardInterrupt:
        print("iotls serve: stopped")
    return 0


def _cmd_runs(args, _opts: RunOptions) -> int:
    """Query the run ledger.

    Exit codes: 0 = success / no drift, 1 = not found, drift, or a
    blocking SLO failure, 2 = usage error (bad digests, bad policy).
    """
    from pathlib import Path

    path = Path(args.ledger)
    entries = telemetry.load_ledger(path)
    if not entries and args.runs_command not in ("list", "trend", "gc"):
        print(f"no run ledger at {path}", file=sys.stderr)
        return 2
    handlers = {
        "list": _runs_list,
        "show": _runs_show,
        "diff": _runs_diff,
        "trend": _runs_trend,
        "lookup": _runs_lookup,
        "gc": _runs_gc,
    }
    return handlers[args.runs_command](args, entries)


_COMMANDS = {
    "audit": _cmd_audit,
    "pcap": _cmd_pcap,
    "report": _cmd_report,
    "probe": _cmd_probe,
    "amenability": _cmd_amenability,
    "trace": _cmd_trace,
    "fingerprint": _cmd_fingerprint,
    "devices": _cmd_devices,
    "check": _cmd_check,
    "lint": _cmd_lint,
    "telemetry-demo": _cmd_telemetry_demo,
    "runs": _cmd_runs,
    "serve": _cmd_serve,
}


def _emit_profile(opts: RunOptions) -> int:
    """Render/export the run's span profile.  Returns 1 if no spans."""
    from pathlib import Path

    from .telemetry import Profiler, render_hot_table

    profiler = Profiler.from_runtime(telemetry.get())
    print("\nhot spans:")
    print(render_hot_table(profiler))
    if opts.profile_out:
        path = write_json(profiler.to_dict(), opts.profile_out)
        print(f"wrote profile {path}")
    if opts.profile_stacks:
        path = Path(opts.profile_stacks)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(profiler.collapsed_stacks())
        print(f"wrote collapsed stacks {path}")
    return 0 if len(profiler) else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    opts = resolve_run_options(args)
    if opts.telemetry_on:
        telemetry.configure(enabled=True)
    status = _COMMANDS[args.command](args, opts)
    if opts.telemetry_on:
        registry = telemetry.get_registry()
        if opts.metrics_out is not None:
            path = telemetry.write_snapshot(
                registry, opts.metrics_out, extra={"command": args.command}
            )
            print(f"wrote metrics snapshot {path}")
        if args.command != "telemetry-demo":
            print("\ntelemetry summary:")
            print(telemetry.summary_table(registry))
    if status == 0 and opts.profile_on:
        status = _emit_profile(opts)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
