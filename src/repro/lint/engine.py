"""The lint driver: discover, parse, check, baseline, report.

Two passes over one parse of each file:

* the **module pass** runs every ``module``-scope rule over each file,
* the **whole-program pass** (``whole_program=True``) builds the
  :class:`~repro.lint.project.ProjectGraph` from the same parsed
  modules and runs the ``project``-scope rules over it.

Findings are sorted by ``(path, line, col, code)`` after both passes,
so CI diffs stay stable.
"""

from __future__ import annotations

from pathlib import Path

from .baseline import Baseline
from .registry import Violation, select_rules
from .reporters import LintReport
from .walker import iter_python_files, parse_module

__all__ = ["run_lint", "DEFAULT_PATHS", "DEFAULT_BASELINE"]

#: What `iotls lint` checks when no paths are given: the library source
#: and the repo tooling (tests deliberately exercise banned constructs).
DEFAULT_PATHS = ("src", "tools")

#: Repo-root-relative location of the committed suppression file.
DEFAULT_BASELINE = "tools/lint_baseline.json"


def _syntax_violation(path: Path, root: Path, exc: SyntaxError) -> Violation:
    try:
        relative = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relative = path.as_posix()
    return Violation(
        code="RL000",
        path=relative,
        line=exc.lineno or 1,
        col=(exc.offset or 1),
        message=f"file does not parse: {exc.msg}",
    )


def run_lint(
    paths: list[str | Path] | None = None,
    *,
    root: str | Path | None = None,
    baseline: Baseline | None = None,
    select: list[str] | None = None,
    ignore: list[str] | None = None,
    whole_program: bool = False,
) -> LintReport:
    """Run every selected rule over every Python file under ``paths``.

    ``root`` anchors repo-relative reporting paths and dotted module
    names; it defaults to the current directory.  A :class:`SyntaxError` in a checked file is
    surfaced as an ``RL000`` violation rather than an exception, so one
    broken file cannot hide findings in the rest of the tree.

    ``whole_program=True`` additionally builds the project graph and
    runs the ``project``-scope rules.
    """
    root = Path(root) if root is not None else Path.cwd()
    targets = [Path(p) for p in (paths or [root / part for part in DEFAULT_PATHS])]
    rules = select_rules(select, ignore)
    module_rules = [r for r in rules if r.scope == "module"]
    project_rules = [r for r in rules if r.scope == "project"] if whole_program else []

    files = list(iter_python_files(targets))
    violations: list[Violation] = []
    contexts = []
    for path in files:
        try:
            module = parse_module(path, root)
        except SyntaxError as exc:
            violations.append(_syntax_violation(path, root, exc))
            continue
        contexts.append(module)
        for rule in module_rules:
            violations.extend(rule.run(module))

    if project_rules:
        from .project import build_graph

        graph = build_graph(contexts)
        for rule in project_rules:
            violations.extend(rule.check(graph))

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    if baseline is None:
        active, suppressed, stale = violations, [], []
        unjustified = []
    else:
        active, suppressed, stale = baseline.partition(violations)
        unjustified = baseline.unjustified()
    return LintReport(
        violations=active,
        suppressed=suppressed,
        stale_baseline=stale,
        unjustified_baseline=unjustified,
        rules=rules,
        files_checked=len(files),
    )
