"""Command-line interface for the IoTLS reproduction.

Subcommands map one-to-one onto the paper's experiments:

* ``audit``        -- the full active campaign (Tables 5/6/7 + probing)
* ``probe``        -- root-store exploration of one device (Table 9 row)
* ``amenability``  -- the Table 4 library survey
* ``trace``        -- generate the longitudinal capture and summarise
                      Figures 1-3, adoption events, Table 8
* ``fingerprint``  -- the Figure 5 shared-fingerprint analysis
* ``devices``      -- list the Table 1 catalog
* ``report``       -- run everything and write the markdown report
* ``pcap``         -- export the capture's ClientHellos as a pcap file
* ``check``        -- audit a run against the paper's published values
                      (drift report; non-zero exit on drift)
* ``serve``        -- the resident fleet service (:mod:`repro.serve`)
* ``runs``         -- query the run ledger: ``list``/``show``/``diff``/
                      ``trend``/``lookup``/``gc`` over every recorded run

The run subcommands (``audit``, ``probe``, ``trace``, ``report``,
``pcap``, ``check``) are a thin projection of :mod:`repro.api`.  Each
flag is declared once, in :data:`_FLAGS`, under the ``dest`` it feeds:

* a :class:`repro.api.RunConfig` field -- ``--scale`` -> ``scale``,
  ``--no-passthrough`` -> ``include_passthrough`` (``store_false``), the
  probe positional -> ``device``, ``--flow-cap`` -> ``flow_cap``, ...;
* an extra of the command's :class:`repro.api.CommandSpec` --
  ``--json`` -> ``json_path``, ``--stream-out`` -> ``stream_path``,
  ``--out``, ``--expected`` -> ``expected_path``, ``--artifact`` ->
  ``artifact_path``;
* or a CLI-only setting the CLI handles around the run --
  ``--manifest``, ``--profile``, ``--profile-out``, ``--no-ledger``.

:data:`_COMMAND_FLAGS` says which flags each subcommand takes and the
few defaults it overrides.  :func:`_execute` is the one path from a
parsed namespace to :func:`repro.api.execute`: ``RunConfig`` from the
fields the namespace carries, plus the spec's extras.  ``iotls serve``
fills :class:`repro.serve.ServeConfig` by field name the same way.  A
``ValueError`` from a run prints ``error: ...`` and exits 2, the CLI's
counterpart of the service's 400; a typed :class:`repro.api.RunError`
exits 2 the same way.

``trace`` additionally supports the streaming pipeline: ``--stream``
runs the analyses in bounded memory without materialising the capture,
and ``--stream-out PATH`` exports the record stream as JSON Lines
(consumable by ``iotls check --artifact PATH.jsonl``).
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import fields
from typing import Any, Sequence

from . import api, telemetry
from .analysis import render_table, table1_rows
from .analysis.export import write_json

__all__ = ["main", "build_parser"]

#: Every flag of the run and serve subcommands, declared once:
#: ``dest -> (option string, argparse keywords)``.  The ``dest`` is the
#: RunConfig / ServeConfig field, CommandSpec extra, or CLI-only
#: setting the flag feeds.
_FLAGS: dict[str, tuple[str, dict[str, Any]]] = {
    # RunConfig fields
    "device": ("device", dict(help='device name, e.g. "LG TV"')),
    "include_passthrough": (
        "--no-passthrough",
        dict(action="store_false", help="skip the passthrough pass"),
    ),
    "scale": ("--scale", dict(
        type=int, default=40,
        help="passive-trace scale: connections per weight-unit-month "
        "(default %(default)s)",
    )),
    "seed": ("--seed", dict(
        default="iotls-passive",
        help="passive-trace generator seed (default %(default)s); recorded in "
        "JSON metadata",
    )),
    "stream": ("--stream", dict(
        action="store_true",
        help="run the analyses in streaming mode (bounded memory; the capture "
        "is never materialised, so --json is unavailable)",
    )),
    "flow_cap": ("--flow-cap", dict(
        type=int, default=None, metavar="N",
        help="split batched flow records to at most N connections each "
        "(record volume then tracks connection volume)",
    )),
    "limit": ("--limit", dict(type=int, default=None, help="max packets")),
    "telemetry": ("--telemetry", dict(
        action="store_true",
        help="enable the telemetry subsystem (metrics)",
    )),
    "ledger": ("--ledger", dict(
        metavar="PATH", default=None,
        help=f"append this run's {telemetry.LEDGER_SCHEMA} entry to PATH "
        f"(default {telemetry.DEFAULT_LEDGER_PATH}); query it with `iotls runs`",
    )),
    # CommandSpec extras
    "json_path": ("--json", dict(metavar="PATH", help="export the results as JSON")),
    "stream_path": ("--stream-out", dict(
        metavar="PATH",
        help="export the record stream as JSON Lines (implies --stream); "
        "audit it later with `iotls check --artifact PATH`",
    )),
    "out": ("--out", dict(help="output path (default %(default)s)")),
    "expected_path": ("--expected", dict(
        metavar="PATH",
        help="expectations file (default: the packaged expected/paper.json)",
    )),
    "artifact_path": ("--artifact", dict(
        metavar="PATH",
        help="audit a previously exported trace artifact (`iotls trace --json` "
        "document or `--stream-out` JSONL stream) instead of running fresh "
        "experiments (capture-derived cells only; the rest are reported as "
        "skipped)",
    )),
    # CLI-only settings
    "manifest": ("--manifest", dict(
        metavar="PATH",
        help="write the run manifest (provenance document) as canonical JSON; "
        "the manifest digest is always printed",
    )),
    "profile": ("--profile", dict(
        action="store_true",
        help="run under cProfile and print self time per repro module and "
        "the hottest functions",
    )),
    "profile_out": ("--profile-out", dict(
        metavar="PATH", help="write that profile as JSON (implies --profile)"
    )),
    "no_ledger": ("--no-ledger", dict(
        action="store_true", help="do not record this run in the run ledger"
    )),
    # ServeConfig fields
    "host": ("--host", dict(
        default="127.0.0.1", help="bind address (default %(default)s)"
    )),
    "port": ("--port", dict(
        type=int, default=8738,
        help="TCP port (default %(default)s; 0 binds an ephemeral port)",
    )),
    "queue_size": ("--queue-size", dict(
        type=int, default=8, metavar="N",
        help="bounded run-queue capacity; beyond it requests get 429 "
        "(default %(default)s)",
    )),
    "executors": ("--executors", dict(
        type=int, default=2, metavar="N",
        help="concurrent run executors (default %(default)s)",
    )),
    "artifact_dir": ("--artifact-dir", dict(
        default=".iotls/serve", metavar="PATH",
        help="where computed run artifacts land (default %(default)s)",
    )),
    "access_log": ("--access-log", dict(
        metavar="PATH",
        help=f"write the {telemetry.ACCESS_LOG_SCHEMA} access log as JSONL",
    )),
    "heartbeat_interval": ("--heartbeat-interval", dict(
        type=float, default=1.0, metavar="SECONDS",
        help="seconds between the request.heartbeat access-log events of a "
        "running request (default %(default)s)",
    )),
    "retry_after": ("--retry-after", dict(
        type=int, default=1, metavar="SECONDS",
        help="Retry-After seconds advertised on 429 and 503 responses "
        "(default %(default)s)",
    )),
    "workers": ("--workers", dict(
        type=int, default=1, metavar="N",
        help="size of the resident warm worker pool that cache misses shard "
        "onto (default 1 = in-process); output is identical for any N",
    )),
}

_PROFILE = ("profile", "profile_out")
_LEDGER = ("ledger", "no_ledger")
_OBSERVED = ("telemetry", "manifest", *_PROFILE)

#: The flags each subcommand takes (in help order) and the defaults it
#: overrides.
_COMMAND_FLAGS: dict[str, tuple[tuple[str, ...], dict[str, Any]]] = {
    "audit": (("include_passthrough", *_OBSERVED, "json_path", *_LEDGER), {}),
    "probe": (("device", "telemetry", "json_path", *_LEDGER), {}),
    "amenability": (("telemetry",), {}),
    "trace": (
        ("scale", "seed", "stream", "stream_path", "flow_cap", *_OBSERVED,
         "json_path", *_LEDGER),
        {},
    ),
    "fingerprint": (("telemetry",), {}),
    "devices": (("telemetry",), {}),
    "report": (("out", "scale", *_OBSERVED, *_LEDGER), {"out": "REPORT.md"}),
    "pcap": (
        ("out", "scale", "limit", "telemetry", "manifest", *_LEDGER),
        {"out": "iotls.pcap", "scale": 10},
    ),
    "check": (
        ("scale", "seed", "expected_path", "artifact_path", "telemetry",
         "json_path", *_LEDGER),
        {"scale": 1},
    ),
    "serve": (
        ("host", "port", "queue_size", "executors", "artifact_dir", "access_log",
         "heartbeat_interval", "retry_after", "workers", *_LEDGER),
        {},
    ),
}


def _add_flags(parser: argparse.ArgumentParser, command: str) -> None:
    names, defaults = _COMMAND_FLAGS[command]
    for dest in names:
        option, keywords = _FLAGS[dest]
        if option.startswith("-"):
            keywords = {**keywords, "dest": dest}
        if dest in defaults:
            keywords = {**keywords, "default": defaults[dest]}
        parser.add_argument(option, **keywords)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iotls",
        description="IoTLS reproduction: TLS measurement experiments for consumer IoT devices",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    helps = {
        "audit": "run the full active-experiment campaign",
        "probe": "probe one device's root store",
        "amenability": "survey library alert behaviour (Table 4)",
        "trace": "generate the 27-month passive capture",
        "fingerprint": "shared-fingerprint analysis (Figure 5)",
        "devices": "list the device catalog (Table 1)",
        "report": "run everything and write a full markdown report",
        "pcap": "export the passive capture's ClientHellos as a pcap file",
        "check": "audit the reproduction against the paper's published values",
        "serve": "run the resident fleet service (HTTP/JSON, content-addressed "
        "result cache over the run ledger)",
    }
    for command, help_text in helps.items():
        _add_flags(subparsers.add_parser(command, help=help_text), command)

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


def _config_fields(cls: type, args: argparse.Namespace) -> dict[str, Any]:
    """The fields of dataclass ``cls`` that ``args`` carries, by name.

    The ledger is the one flag pair resolved here: ``--no-ledger`` turns
    it off, and an absent ``--ledger`` means the default ledger.
    """
    given = vars(args)
    values = {f.name: given[f.name] for f in fields(cls) if f.name in given}
    if "ledger" in values:
        values["ledger"] = (
            None if args.no_ledger else values["ledger"] or telemetry.DEFAULT_LEDGER_PATH
        )
    return values


def _execute(args: argparse.Namespace, **extras: Any) -> api.RunResult:
    """The one path from a parsed namespace to :func:`repro.api.execute`.

    Flags named after a :class:`~repro.api.RunConfig` field build the
    config; flags named after one of the command's extras are passed as
    keyword arguments, and explicit ``extras`` (``report``'s ``progress``
    callback) join them.
    """
    config = api.RunConfig(**_config_fields(api.RunConfig, args))
    given = vars(args)
    spec = api.command_spec(args.command)
    from_flags = {name: given[name] for name in spec.extras if name in given}
    return api.execute(args.command, config, **from_flags, **extras)


def _print_manifest(result, args: argparse.Namespace) -> None:
    """Print the run's manifest digest; write the document with --manifest."""
    print(f"\nrun manifest digest: {result.manifest_digest}")
    if args.manifest:
        path = telemetry.write_manifest(result.manifest, args.manifest)
        print(f"wrote run manifest {path}")


def _cmd_audit(args) -> int:
    result = _execute(args)
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
    _print_manifest(result, args)
    return 0


def _cmd_probe(args) -> int:
    try:
        result = _execute(args)
    except api.UnknownDeviceError as exc:
        print(f"error: {exc}; try `iotls devices`", file=sys.stderr)
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


def _cmd_amenability(_args) -> int:
    from .core import survey_all_libraries

    rows = [(*row.row(), "yes" if row.amenable else "no") for row in survey_all_libraries()]
    print(render_table(["Library", "Known CA, bad signature", "Unknown CA", "Amenable"], rows))
    return 0


def _cmd_trace(args) -> int:
    result = _execute(args)
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
    _print_manifest(result, args)
    return 0


def _cmd_fingerprint(_args) -> int:
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


def _cmd_devices(_args) -> int:
    print(render_table(["Category", "Device", "Passive-only"], table1_rows()))
    return 0


def _cmd_report(args) -> int:
    # The report runner announces its phases; the CLI prints them.
    result = _execute(args, progress=print)
    print(f"wrote {result.path}")
    _print_manifest(result, args)
    return 0


def _cmd_pcap(args) -> int:
    result = _execute(args)
    print(f"wrote {result.packets_written} packets to {result.path} "
          f"({result.size_bytes:,} bytes)")
    _print_manifest(result, args)
    return 0


def _cmd_check(args) -> int:
    """Audit the reproduction against the paper's published values.

    Exit codes: 0 = no drift, 1 = drift detected, 2 = usage error
    (unreadable artifact or expectations file).
    """
    if args.artifact_path:
        print(f"auditing artifact {args.artifact_path} (capture-derived cells only)\n")
    else:
        print(f"auditing fresh run (scale {args.scale}, seed {args.seed!r})...\n")
    try:
        # Either path is a registered run that appends its own check
        # ledger entry, drift verdict included.
        report = _execute(args).report
    except (OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if args.json_path:
        path = write_json(report.to_dict(), args.json_path)
        print(f"\nwrote drift report {path}")
    if not report.ok:
        cells = ", ".join(cell.expectation.id for cell in report.drifted)
        print(f"\nDRIFT: {len(report.drifted)} cell(s) deviate: {cells}", file=sys.stderr)
        return 1
    print("\npaper reproduction healthy: no drift detected")
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


def _cmd_serve(args) -> int:
    """Run the resident fleet service until interrupted.

    Exit codes: 0 = clean shutdown, 2 = usage error (serve needs a
    ledger: it is the result cache's index;
    :class:`~repro.serve.ServeConfig` rejects values that would hang or
    disable the service).
    """
    import asyncio

    from .serve import ServeConfig, serve

    config = _config_fields(ServeConfig, args)
    if config["ledger"] is None:
        print(
            "error: iotls serve needs a run ledger (it is the result "
            "cache's index); drop --no-ledger",
            file=sys.stderr,
        )
        return 2
    try:
        asyncio.run(serve(ServeConfig(**config)))
    except KeyboardInterrupt:
        print("iotls serve: stopped")
    return 0


def _cmd_runs(args) -> int:
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
    "runs": _cmd_runs,
    "serve": _cmd_serve,
}


def _run_profiled(args: argparse.Namespace) -> int:
    """Run the command under cProfile; print where its time went, per
    ``repro`` module, and write the document with ``--profile-out``."""
    status, document = telemetry.profile_call(args.command, _COMMANDS[args.command], args)
    print(f"\nprofile: {document['total_seconds']:.3f} s, coverage {document['coverage']:.2f}")
    tables = [
        render_table(
            [key, "calls", "self (s)", "share"],
            [(row[key], row["calls"], f"{row['self_seconds']:.4f}", f"{row['share']:.1%}")
             for row in rows],
        )
        for key, rows in (("module", document["modules"]), ("function", document["functions"][:10]))
    ]
    print("\n\n".join(tables))
    if args.profile_out:
        path = write_json(document, args.profile_out)
        print(f"wrote profile {path}")
    return status


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    given = vars(args)
    telemetry_on = given.get("telemetry")
    if telemetry_on:
        telemetry.configure(enabled=True)
    profiled = any(given.get(name) for name in _PROFILE)
    try:
        status = (_run_profiled if profiled else _COMMANDS[args.command])(args)
    except (api.RunError, ValueError) as exc:
        if args.command not in (*api.command_names(), "serve"):
            raise
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    if status == 0 and telemetry_on:
        print("\ntelemetry summary:")
        print(telemetry.summary_table(telemetry.get_registry()))
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
