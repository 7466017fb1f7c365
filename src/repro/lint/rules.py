"""The reprolint rule set: one function per invariant.

Every rule here encodes a property the reproduction already relies on
-- byte-identical manifests across ``--workers 1/2/4``, seeded-RNG
determinism for every table/figure artifact, the PR-4 single-counter
streaming rule -- so a violation is a correctness bug waiting for a
run to expose it, caught at parse time instead.

Rule codes are grouped by family:

* ``RL00x`` determinism, ``RL01x`` telemetry discipline,
* ``RL03x`` exception hygiene.

The API-hygiene family (``RL022``) and the concurrency family
(``RL04x``) are whole-program rules in their own modules.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .registry import Violation, rule
from .walker import ModuleContext, enclosing_functions, parent

__all__ = [
    "CLOCK_BOUNDARY_PREFIXES",
    "LEDGER_BOUNDARY_PREFIXES",
    "PROGRESS_BOUNDARY_PREFIXES",
    "STREAM_PATH_FUNCTIONS",
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

#: RL001 -- module-level random functions that draw from the global,
#: unseeded RNG (process-lifetime state no manifest can account for).
GLOBAL_RNG_CALLS = frozenset(
    {
        f"random.{name}"
        for name in (
            "random", "randint", "randrange", "choice", "choices",
            "shuffle", "sample", "uniform", "getrandbits", "seed",
        )
    }
)

#: RL010 -- function scopes that form the streaming hot path: the
#: generator's one chunk loop and the pool's chunk task.  They are
#: gauges-only: a counter bumped here would make streaming and
#: materialised manifests diverge.
STREAM_PATH_FUNCTIONS = frozenset({"stream_into", "run_trace_chunk"})

#: RL012 -- the progress boundary: the one module allowed to emit
#: heartbeat/progress output directly, because every emission there
#: funnels through a Throttle before reaching a stream.
PROGRESS_BOUNDARY_PREFIXES = ("src/repro/telemetry/progress.py",)

#: RL013 -- the ledger-write boundary: the one module allowed to open
#: the run ledger for writing.  Its single-``write()`` O_APPEND append
#: is what makes concurrent entries atomic; any other writer can tear
#: lines, interleave partial entries, or clobber the store outright.
LEDGER_BOUNDARY_PREFIXES = ("src/repro/telemetry/ledger.py",)

#: RL003 -- calls that consume an iterable order-sensitively.
_ORDERED_CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter"})

#: RL003 / RL010 contexts where a set-typed value is order-safe.
_ORDER_SAFE_CALLS = frozenset(
    {"sorted", "len", "min", "max", "sum", "any", "all", "set", "frozenset", "bool"}
)


def _violation(
    module: ModuleContext, code: str, node: ast.AST, message: str
) -> Violation:
    line = getattr(node, "lineno", 1)
    return Violation(
        code=code,
        path=module.path,
        line=line,
        col=getattr(node, "col_offset", 0) + 1,
        message=message,
        snippet=module.snippet(line),
        end_line=getattr(node, "end_lineno", None) or 0,
        end_col=(getattr(node, "end_col_offset", None) or -1) + 1,
    )


# ----------------------------------------------------------------------
# Determinism family (RL00x)
# ----------------------------------------------------------------------
@rule(
    "RL001",
    "unseeded-rng",
    "determinism",
    "Every RNG must be an explicitly seeded random.Random instance (the "
    "keyed-string pattern); the global RNG carries process-lifetime state "
    "no run manifest can reproduce.",
)
def check_unseeded_rng(module: ModuleContext) -> Iterator[Violation]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        target = module.resolve_call(node.func)
        if target == "random.Random":
            if not node.args and not node.keywords:
                yield _violation(
                    module,
                    "RL001",
                    node,
                    "random.Random() without an explicit seed argument; key it "
                    'like random.Random(f"{seed}:{device}:...") so replays are '
                    "byte-identical",
                )
        elif target in GLOBAL_RNG_CALLS:
            yield _violation(
                module,
                "RL001",
                node,
                f"{target}() draws from the global unseeded RNG; use an "
                "explicitly seeded random.Random instance instead",
            )


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
            yield _violation(
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
                yield _violation(
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
    "RL010",
    "counter-discipline",
    "telemetry",
    "Counters exist only through the MetricsRegistry get-or-create API, "
    "and the streaming hot path is gauges-only: a counter incremented in "
    "stream_into/chunk-worker scopes breaks the byte-identical-manifest "
    "parity between streaming and materialised runs.",
)
def check_counter_discipline(module: ModuleContext) -> Iterator[Violation]:
    in_metrics_module = module.module.endswith("telemetry.metrics")
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        target = module.resolve_call(node.func)
        if (
            target is not None
            and not in_metrics_module
            and (
                target.endswith("metrics.Counter")
                or target.endswith("metrics.Gauge")
                or target.endswith("metrics.Histogram")
            )
        ):
            yield _violation(
                module,
                "RL010",
                node,
                f"direct {target.rsplit('.', 1)[1]} construction bypasses the "
                "MetricsRegistry get-or-create API (merge and export only see "
                "registry-owned instruments)",
            )
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr == "counter":
            scopes = enclosing_functions(node)
            hot = [name for name in scopes if name in STREAM_PATH_FUNCTIONS]
            if hot:
                yield _violation(
                    module,
                    "RL010",
                    node,
                    f"counter access inside streaming scope {hot[0]}(); the "
                    "stream path is gauges-only so manifests stay identical "
                    "to the materialised run",
                )


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
        yield _violation(
            module,
            "RL011",
            node,
            ".span(...) outside a `with` statement; spans must be context-"
            "managed so they always close",
        )


@rule(
    "RL012",
    "unthrottled-heartbeat",
    "telemetry",
    "Progress and heartbeat emission must flow through the throttled "
    "ProgressReporter in repro.telemetry.progress; a direct emit_now() "
    "call elsewhere bypasses rate limiting and can flood stderr and every "
    "--heartbeat-out consumer at per-record rates.",
)
def check_heartbeat_throttling(module: ModuleContext) -> Iterator[Violation]:
    if module.path.startswith(PROGRESS_BOUNDARY_PREFIXES):
        return
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit_now"
        ):
            yield _violation(
                module,
                "RL012",
                node,
                ".emit_now() outside the progress boundary bypasses the "
                "heartbeat throttle; call reporter.advance(...) and let the "
                "Throttle decide when to emit",
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
        yield _violation(
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
            yield _violation(
                module,
                "RL030",
                node,
                "bare `except:` catches SystemExit/KeyboardInterrupt too; "
                "name the exception types the code can actually handle",
            )
        elif _is_broad(node.type) and _swallows(node):
            yield _violation(
                module,
                "RL030",
                node,
                "`except Exception` with a pass-only body silently swallows "
                "failures; handle, log, or re-raise",
            )
