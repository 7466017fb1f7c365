"""``iotls lint`` / ``python -m repro.lint``: the CLI entry point.

Exit codes follow the repo convention (``iotls check`` sets the
pattern): 0 = clean, 1 = violations found, 2 = usage error (unknown
rule code, unreadable baseline, bad path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .baseline import Baseline
from .engine import DEFAULT_BASELINE, run_lint
from .registry import all_rules
from .reporters import FORMATS, render

__all__ = ["main", "build_parser", "configure_parser", "run_from_args"]

DESCRIPTION = (
    "reprolint: AST-based invariant checks for determinism, "
    "telemetry discipline, API hygiene, exception hygiene and "
    "concurrency (--whole-program adds the cross-module rules)"
)


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the lint arguments (shared by ``iotls lint`` and ``-m``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: src and tools)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="human",
        help="report format (default human; github emits ::error annotations)",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        default=None,
        help="repo root for relative paths and project-level inputs "
        "(default: current directory)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help=f"suppression file (default {DEFAULT_BASELINE} under the root)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every violation, ignoring the baseline",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to cover exactly the current violations "
        "(existing justifications are preserved; new entries get a TODO)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--whole-program",
        action="store_true",
        help="build the project graph and run the project-scope rules "
        "(RL041 blocking calls in async code, RL022 stream contracts)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (code, family, rationale) and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="iotls lint", description=DESCRIPTION)
    configure_parser(parser)
    return parser


def _codes(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [code.strip() for code in raw.split(",") if code.strip()]


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a lint run from a parsed namespace (shared entry body)."""
    if args.list_rules:
        for rule in all_rules():
            scope = " (whole-program)" if rule.scope == "project" else ""
            print(f"{rule.code} [{rule.family}]{scope} {rule.name}")
            print(f"    {rule.rationale}")
        return 0

    root = Path(args.root) if args.root else Path.cwd()
    paths = [Path(p) for p in args.paths] or None
    if paths:
        missing = [str(p) for p in paths if not p.exists()]
        if missing:
            print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
            return 2

    baseline: Baseline | None = None
    if not args.no_baseline:
        baseline_path = (
            Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE
        )
        try:
            baseline = Baseline.load(baseline_path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: unreadable baseline {baseline_path}: {exc}", file=sys.stderr)
            return 2

    try:
        report = run_lint(
            paths,
            root=root,
            baseline=baseline,
            select=_codes(args.select),
            ignore=_codes(args.ignore),
            whole_program=args.whole_program,
        )
    except ValueError as exc:  # unknown rule code in --select/--ignore
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        if baseline is None:
            print("error: --update-baseline conflicts with --no-baseline", file=sys.stderr)
            return 2
        updated = baseline.rebuilt_from(report.violations + report.suppressed)
        path = updated.save()
        print(f"wrote {path} ({len(updated.entries)} entries)")
        todo = len(updated.unjustified())
        if todo:
            print(f"note: {todo} entr(y/ies) need a justification (marked TODO)")
        return 0

    print(render(report, args.format))
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    return run_from_args(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
