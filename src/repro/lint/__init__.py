"""reprolint: AST-based invariant checks for the reproduction.

The headline guarantees -- byte-identical artifacts across processes,
workers and hash seeds, a serve loop that never blocks -- hold only as
long as the *source* keeps a handful of disciplines.  This package
checks the ones no test catches statically (stdlib :mod:`ast`, no
runtime dependencies), so a violation fails CI at parse time instead of
surfacing as a flaky artifact three PRs later.

Entry points: ``iotls lint`` and ``python -m repro.lint``; library
callers use :func:`run_lint`.  The rule catalog lives in
``docs/static-analysis.md``; justified suppressions in
``tools/lint_baseline.json``.
"""

from .baseline import Baseline, BaselineEntry
from .cli import build_parser, configure_parser, main, run_from_args
from .engine import DEFAULT_BASELINE, DEFAULT_PATHS, run_lint
from .project import ProjectGraph, build_graph
from .registry import FAMILIES, SCOPES, Rule, Violation, all_rules, select_rules
from .reporters import FORMATS, LintReport, render

__all__ = [
    "Baseline",
    "BaselineEntry",
    "DEFAULT_BASELINE",
    "DEFAULT_PATHS",
    "FAMILIES",
    "FORMATS",
    "LintReport",
    "ProjectGraph",
    "Rule",
    "SCOPES",
    "Violation",
    "all_rules",
    "build_graph",
    "build_parser",
    "configure_parser",
    "main",
    "render",
    "run_from_args",
    "run_lint",
    "select_rules",
]
