"""The per-file reprolint rules: one function per invariant.

Every rule here encodes a property the reproduction relies on and no
test catches -- byte-identical artifacts across processes and hash
seeds, one ledger writer, spans that always close, failures that
surface -- so a violation is a correctness bug
waiting for a run to expose it, caught at parse time instead.

Rule codes are grouped by family:

* ``RL00x`` determinism, ``RL01x`` telemetry discipline,
* ``RL03x`` exception hygiene.

The API-hygiene rule (``RL022``) and the concurrency family
(``RL04x``) live in their own modules.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .registry import Violation, rule
from .walker import ModuleContext, parent

__all__ = [
    "CLOCK_BOUNDARY_PREFIXES",
    "LEDGER_BOUNDARY_PREFIXES",
    "WALL_CLOCK_CALLS",
]

# ----------------------------------------------------------------------
# Rule configuration: the repo-specific boundaries the rules encode.
# ----------------------------------------------------------------------

#: RL002 -- modules under these path prefixes form the telemetry clock
#: boundary: wall-clock readings are legal there because everything
#: they produce is excluded from run manifests by design.
CLOCK_BOUNDARY_PREFIXES = ("src/repro/telemetry/",)

#: RL002 -- canonical dotted names of nondeterministic sources.  Wall
#: clocks break worker-invariance (each process reads a different
#: time); entropy sources break seeded reproducibility outright.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "random.SystemRandom",
    }
)

#: RL013 -- the ledger-write boundary: the one module allowed to open
#: the run ledger for writing.  Its single-``write()`` O_APPEND append
#: is what makes concurrent entries atomic; any other writer can tear
#: lines, interleave partial entries, or clobber the store outright.
LEDGER_BOUNDARY_PREFIXES = ("src/repro/telemetry/ledger.py",)

#: RL003 -- calls that consume an iterable order-sensitively.
_ORDERED_CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter"})


# ----------------------------------------------------------------------
# Determinism family (RL00x)
# ----------------------------------------------------------------------
@rule(
    "RL002",
    "wall-clock-read",
    "determinism",
    "Wall-clock and entropy reads are excluded from run manifests by "
    "design, so they may only happen inside the telemetry clock boundary "
    "(src/repro/telemetry/); anywhere else they leak nondeterminism into "
    "artifacts.",
)
def check_wall_clock(module: ModuleContext) -> Iterator[Violation]:
    if module.path.startswith(CLOCK_BOUNDARY_PREFIXES):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        target = module.resolve_call(node.func)
        if target in WALL_CLOCK_CALLS:
            yield Violation.at(
                module,
                "RL002",
                node,
                f"{target}() outside the telemetry clock boundary; derive "
                "times from the seeded simulation (month_to_date) or move the "
                "reading into repro.telemetry",
            )


def _is_set_typed(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra keeps set-ness; either operand being set-typed
        # is enough evidence for the direct syntactic cases we check.
        return _is_set_typed(node.left) or _is_set_typed(node.right)
    return False


def _iterated_without_order(node: ast.expr) -> bool:
    """True when ``node`` is consumed as an ordered iterable directly."""
    up = parent(node)
    if isinstance(up, ast.For) and up.iter is node:
        return True
    if isinstance(up, ast.comprehension) and up.iter is node:
        return True
    if isinstance(up, ast.Call) and node in up.args:
        func = up.func
        if isinstance(func, ast.Name):
            if func.id in _ORDERED_CONSUMERS:
                return True
            return False  # sorted()/len()/... are order-safe
        if isinstance(func, ast.Attribute) and func.attr == "join":
            return True
    return False


@rule(
    "RL003",
    "unordered-set-iteration",
    "determinism",
    "Set iteration order depends on PYTHONHASHSEED, so a set feeding "
    "output must pass through sorted(...) first or two identical runs "
    "produce different artifacts.",
)
def check_set_iteration(module: ModuleContext) -> Iterator[Violation]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.expr) and _is_set_typed(node):
            if _iterated_without_order(node):
                yield Violation.at(
                    module,
                    "RL003",
                    node,
                    "iterating a set in hash order; wrap it in sorted(...) so "
                    "downstream output is deterministic",
                )


# ----------------------------------------------------------------------
# Telemetry family (RL01x)
# ----------------------------------------------------------------------
@rule(
    "RL011",
    "span-context-manager",
    "telemetry",
    "Spans must open via `with tracer.span(...)`: a span entered by hand "
    "leaks open on any exception, corrupting the tracer stack and every "
    "profile derived from it.",
)
def check_span_usage(module: ModuleContext) -> Iterator[Violation]:
    for node in ast.walk(module.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "span"
        ):
            continue
        up = parent(node)
        if isinstance(up, ast.withitem) and up.context_expr is node:
            continue
        # `with a.span(...), b.span(...)` items also land in withitem;
        # anything else (bare call, assignment, argument) is a leak.
        yield Violation.at(
            module,
            "RL011",
            node,
            ".span(...) outside a `with` statement; spans must be context-"
            "managed so they always close",
        )


#: RL013 -- ``open``-style mode characters that create or mutate.
_WRITE_MODE_CHARS = frozenset("wax+")

#: RL013 -- ``os.open`` flag names that open for writing.
_WRITE_OS_FLAGS = frozenset(
    {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}
)


def _is_write_mode_string(value: object) -> bool:
    """True for a short ``open()`` mode literal that writes (``"a"``,
    ``"wb"``, ``"r+"``, ...)."""
    if not isinstance(value, str) or not 0 < len(value) <= 3:
        return False
    if not set(value) <= set("rwaxbt+U"):
        return False
    return bool(set(value) & _WRITE_MODE_CHARS)


def _opens_for_writing(node: ast.Call) -> bool:
    """True when the call opens or writes a file destructively."""
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in (
        "write_text",
        "write_bytes",
    ):
        return True
    is_open = (isinstance(func, ast.Name) and func.id == "open") or (
        isinstance(func, ast.Attribute) and func.attr == "open"
    )
    if not is_open:
        return False
    arguments: list[ast.expr] = list(node.args)
    arguments.extend(kw.value for kw in node.keywords)
    for argument in arguments:
        for sub in ast.walk(argument):
            if isinstance(sub, ast.Constant) and _is_write_mode_string(sub.value):
                return True
            if isinstance(sub, ast.Attribute) and sub.attr in _WRITE_OS_FLAGS:
                return True
            if isinstance(sub, ast.Name) and sub.id in _WRITE_OS_FLAGS:
                return True
    return False


def _mentions_ledger(node: ast.AST) -> bool:
    """True when any name/attribute/string in the subtree says 'ledger'."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if "ledger" in sub.value.lower():
                return True
        elif isinstance(sub, ast.Name) and "ledger" in sub.id.lower():
            return True
        elif isinstance(sub, ast.Attribute) and "ledger" in sub.attr.lower():
            return True
    return False


@rule(
    "RL013",
    "ledger-write-boundary",
    "telemetry",
    "The run ledger may only be written through repro.telemetry.ledger: "
    "its append boundary is one O_APPEND write() per entry, which is what "
    "keeps concurrent workers from tearing or interleaving lines.  A "
    "file opened for writing elsewhere with 'ledger' anywhere in the "
    "call breaks that atomicity contract.",
)
def check_ledger_write_boundary(module: ModuleContext) -> Iterator[Violation]:
    if module.path.startswith(LEDGER_BOUNDARY_PREFIXES):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        if not _opens_for_writing(node):
            continue
        if not _mentions_ledger(node):
            continue
        yield Violation.at(
            module,
            "RL013",
            node,
            "ledger file opened for writing outside the ledger-write "
            "boundary; append through repro.telemetry.ledger.append_entry "
            "(or rewrite_ledger) so entries stay atomic",
        )


# ----------------------------------------------------------------------
# Exception hygiene family (RL03x)
# ----------------------------------------------------------------------
def _swallows(handler: ast.ExceptHandler) -> bool:
    """A body that is only pass / ... silently discards the exception."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or bare `...`
        return False
    return True


def _is_broad(exc: ast.expr | None) -> bool:
    if exc is None:
        return True
    if isinstance(exc, ast.Name):
        return exc.id in {"Exception", "BaseException"}
    if isinstance(exc, ast.Tuple):
        return any(_is_broad(item) for item in exc.elts)
    return False


@rule(
    "RL030",
    "silent-exception",
    "exceptions",
    "A bare `except:` or a swallowed `except Exception: pass` hides "
    "corruption in core/analysis/streaming paths: the run completes and "
    "publishes a wrong artifact instead of failing.",
)
def check_exception_hygiene(module: ModuleContext) -> Iterator[Violation]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield Violation.at(
                module,
                "RL030",
                node,
                "bare `except:` catches SystemExit/KeyboardInterrupt too; "
                "name the exception types the code can actually handle",
            )
        elif _is_broad(node.type) and _swallows(node):
            yield Violation.at(
                module,
                "RL030",
                node,
                "`except Exception` with a pass-only body silently swallows "
                "failures; handle, log, or re-raise",
            )
