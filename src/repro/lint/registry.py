"""The rule registry: violation records, rule metadata, selection.

A *rule* is a pure function from a parsed module (:class:`ModuleContext`)
to violations, registered under a stable code (``RL002``, ...) and a
*family* that names the invariant class it protects:

* ``determinism``        -- no wall-clock reads, ordered iteration (the
                            byte-identical-manifest guarantee),
* ``telemetry``          -- spans always close, the ledger has one
                            writer,
* ``api``                -- stream-schema ids come from the registry,
* ``exceptions``         -- no bare or silently swallowed exceptions,
* ``concurrency``        -- no blocking call on the event loop, no
                            bare lock acquire.

Rules carry their rationale so reports and ``--list-rules`` can say
*why* a finding matters, not just where it is.

Two rule *scopes* exist: ``module`` rules see one parsed file
(:class:`ModuleContext`); ``project`` rules see the whole
:class:`~repro.lint.project.ProjectGraph` and only run under
``--whole-program``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .walker import ModuleContext

__all__ = [
    "Violation",
    "Rule",
    "rule",
    "all_rules",
    "select_rules",
    "FAMILIES",
    "SCOPES",
]

#: The invariant classes reprolint enforces.
FAMILIES = ("determinism", "telemetry", "api", "exceptions", "concurrency")

#: Rule scopes: per-file AST matching vs. whole-program graph analysis.
SCOPES = ("module", "project")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a specific source location."""

    code: str
    path: str  # repo-relative posix path
    line: int
    col: int
    message: str
    #: The stripped source line -- the baseline's content-addressed key,
    #: stable under unrelated edits that only shift line numbers.
    snippet: str = ""
    #: End of the offending expression (0 = unknown); lets the github
    #: reporter highlight the exact span instead of just the line.
    end_line: int = 0
    end_col: int = 0

    @classmethod
    def at(
        cls, module: "ModuleContext", code: str, node: object, message: str
    ) -> "Violation":
        """A finding at ``node`` (an AST node) in ``module``, spanning
        the node's full extent."""
        line = getattr(node, "lineno", 1)
        return cls(
            code=code,
            path=module.path,
            line=line,
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            snippet=module.snippet(line),
            end_line=getattr(node, "end_lineno", None) or 0,
            end_col=(getattr(node, "end_col_offset", None) or -1) + 1,
        )

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "end_line": self.end_line,
            "end_col": self.end_col,
        }


@dataclass(frozen=True)
class Rule:
    """A registered invariant check."""

    code: str
    name: str
    family: str
    rationale: str
    check: Callable[..., Iterator[Violation]] = field(repr=False)
    #: ``module`` rules take a :class:`ModuleContext`; ``project`` rules
    #: take a :class:`~repro.lint.project.ProjectGraph` and only run
    #: under ``--whole-program``.
    scope: str = "module"

    def run(self, module: "ModuleContext") -> Iterator[Violation]:
        return self.check(module)


#: Registration order is report order within a file.
_RULES: dict[str, Rule] = {}


def rule(code: str, name: str, family: str, rationale: str, *, scope: str = "module"):
    """Register ``check`` under ``code``; returns the function unchanged."""
    if family not in FAMILIES:
        raise ValueError(f"unknown rule family {family!r} for {code}")
    if scope not in SCOPES:
        raise ValueError(f"unknown rule scope {scope!r} for {code}")

    def decorator(check: Callable[..., Iterator[Violation]]):
        if code in _RULES:
            raise ValueError(f"duplicate rule code {code}")
        _RULES[code] = Rule(
            code=code,
            name=name,
            family=family,
            rationale=rationale,
            check=check,
            scope=scope,
        )
        return check

    return decorator


def all_rules() -> list[Rule]:
    """Every registered rule, in code order."""
    # Imported for their registration side effects.
    from . import concurrency as _concurrency  # noqa: F401
    from . import contracts as _contracts  # noqa: F401
    from . import rules as _rules  # noqa: F401

    return [_RULES[code] for code in sorted(_RULES)]


def select_rules(
    select: Iterable[str] | None = None, ignore: Iterable[str] | None = None
) -> list[Rule]:
    """Resolve ``--select`` / ``--ignore`` code lists to rule objects.

    Raises :class:`ValueError` on a code that names no registered rule,
    so typos fail loudly instead of silently checking nothing.
    """
    rules = all_rules()
    known = {r.code for r in rules}
    for requested in list(select or []) + list(ignore or []):
        if requested not in known:
            raise ValueError(
                f"unknown rule code {requested!r}; known: {', '.join(sorted(known))}"
            )
    if select:
        wanted = set(select)
        rules = [r for r in rules if r.code in wanted]
    if ignore:
        dropped = set(ignore)
        rules = [r for r in rules if r.code not in dropped]
    return rules
