"""The concurrency family: RL041 over the project graph, RL042 per file.

RL041 only runs under ``--whole-program`` because it needs facts no
single file contains: which synchronous call chains an ``async def``
reaches.  It fires only on *positive* evidence -- a call that resolves
to a known-blocking target -- so an unresolved name costs recall, never
precision (see docs/static-analysis.md).  RL042 is syntactic and sees
one file at a time.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .project import ProjectGraph
from .registry import Violation, rule
from .walker import ModuleContext, parent

__all__ = [
    "BLOCKING_ATTR_CALLS",
    "BLOCKING_DOTTED_CALLS",
    "SEEDED_BLOCKING_QUALNAMES",
]

# ----------------------------------------------------------------------
# RL041 configuration
# ----------------------------------------------------------------------

#: Canonical dotted names that block the calling thread.
BLOCKING_DOTTED_CALLS = frozenset(
    {
        "time.sleep",
        "os.open",
        "os.write",
        "os.fsync",
        "os.replace",
        "os.remove",
        "os.rename",
        "subprocess.run",
        "subprocess.Popen",
        "subprocess.check_output",
        "subprocess.check_call",
        "subprocess.call",
        "socket.create_connection",
    }
)

#: Attribute-call names that are file I/O on any receiver (Path methods
#: and file handles).  Bare ``.read``/``.write`` are deliberately absent:
#: asyncio's StreamWriter.write is non-blocking.
BLOCKING_ATTR_CALLS = frozenset(
    {
        "open",
        "read_text",
        "read_bytes",
        "write_text",
        "write_bytes",
        "mkdir",
        "unlink",
        "replace",
        "rename",
    }
)

#: Project functions that are blocking by contract even though their
#: bodies defer the work (pool dispatch joins worker round-trips; the
#: generator bodies only block once iterated, which call sites do).
SEEDED_BLOCKING_QUALNAMES = frozenset(
    {
        "repro.parallel.pool.WarmWorkerPool.map",
        "repro.parallel.pool.WarmWorkerPool.imap",
    }
)

#: Offload wrappers: a call reference passed *into* these never executes
#: on the event loop, so it cuts RL041 propagation and flagging.
_OFFLOAD_CALLS = frozenset({"asyncio.to_thread"})
_OFFLOAD_ATTRS = frozenset({"run_in_executor", "to_thread"})


def _walk_own_body(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs/lambdas."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        yield current
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(current))


# ----------------------------------------------------------------------
# RL041 blocking-call-in-event-loop
# ----------------------------------------------------------------------
def _is_offload_call(module, call: ast.Call) -> bool:
    dotted = module.resolve_call(call.func)
    if dotted in _OFFLOAD_CALLS:
        return True
    return (
        isinstance(call.func, ast.Attribute) and call.func.attr in _OFFLOAD_ATTRS
    )


def _direct_blocking_reason(module, call: ast.Call) -> str | None:
    """Why this call blocks the thread, or None."""
    dotted = module.resolve_call(call.func)
    if dotted in BLOCKING_DOTTED_CALLS:
        return f"'{dotted}' blocks the calling thread"
    if isinstance(call.func, ast.Name) and call.func.id == "open":
        if dotted is None or dotted == "open":
            return "builtin open() performs synchronous file I/O"
    if isinstance(call.func, ast.Attribute):
        if call.func.attr in BLOCKING_ATTR_CALLS:
            return f".{call.func.attr}() performs synchronous file I/O"
    return None


def _compute_blocking(graph: ProjectGraph) -> dict[str, str]:
    """qualname -> reason, for every transitively-blocking sync function."""
    blocking: dict[str, str] = {
        qual: "pool dispatch joins a worker round-trip"
        for qual in SEEDED_BLOCKING_QUALNAMES
        if qual in graph.functions
    }
    for qual, info in graph.functions.items():
        if info.is_async or qual in blocking:
            continue
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                reason = _direct_blocking_reason(info.module, node)
                if reason is not None:
                    blocking[qual] = reason
                    break
    # Propagate through sync call edges to a fixpoint.
    changed = True
    while changed:
        changed = False
        for qual, callees in graph.calls.items():
            info = graph.functions.get(qual)
            if info is None or info.is_async or qual in blocking:
                continue
            for callee in sorted(callees):
                if callee in blocking:
                    callee_info = graph.functions.get(callee)
                    if callee_info is not None and callee_info.is_async:
                        continue
                    blocking[qual] = f"calls blocking '{callee}'"
                    changed = True
                    break
    return blocking


def _under_offload(module, node: ast.AST) -> bool:
    """True when ``node`` sits inside an offload wrapper's arguments."""
    current = parent(node)
    while current is not None:
        if isinstance(current, ast.Call) and _is_offload_call(module, current):
            return True
        current = parent(current)
    return False


@rule(
    "RL041",
    "blocking-call-in-event-loop",
    "concurrency",
    "A synchronous file/process/sleep call inside an async def stalls "
    "every coroutine on the loop; offload it with await "
    "asyncio.to_thread(...) like the existing serve handlers do.",
    scope="project",
)
def check_blocking_in_async(graph: ProjectGraph) -> Iterator[Violation]:
    blocking = _compute_blocking(graph)
    for qualname in sorted(graph.functions):
        info = graph.functions[qualname]
        if not info.is_async:
            continue
        for node in _walk_own_body(info.node):
            if not isinstance(node, ast.Call):
                continue
            if _under_offload(info.module, node):
                continue
            reason = _direct_blocking_reason(info.module, node)
            if reason is None:
                resolved = graph.resolve(
                    info.module, node.func, class_qualname=info.class_qualname
                )
                if resolved is not None:
                    callee = graph.callee_function(resolved)
                    if callee is not None and callee in blocking:
                        callee_info = graph.functions.get(callee)
                        if callee_info is None or not callee_info.is_async:
                            reason = f"'{callee}' blocks: {blocking[callee]}"
            if reason is not None:
                yield Violation.at(
                    info.module,
                    "RL041",
                    node,
                    f"blocking call in async '{qualname}': {reason}; "
                    "offload with 'await asyncio.to_thread(...)'",
                )


# ----------------------------------------------------------------------
# RL042 bare-acquire
# ----------------------------------------------------------------------
def _receiver_key(expr: ast.expr) -> str:
    """A structural key for matching acquire/release receivers."""
    return ast.dump(expr)


def _releases_in(stmts: list[ast.stmt], key: str) -> bool:
    for stmt in stmts:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "release"
                and _receiver_key(node.func.value) == key
            ):
                return True
    return False


def _statement_of(node: ast.AST) -> ast.stmt | None:
    current: ast.AST | None = node
    while current is not None and not isinstance(current, ast.stmt):
        current = parent(current)
    return current if isinstance(current, ast.stmt) else None


def _next_sibling(stmt: ast.stmt) -> ast.stmt | None:
    container = parent(stmt)
    if container is None:
        return None
    for field_name in ("body", "orelse", "finalbody", "handlers"):
        block = getattr(container, field_name, None)
        if isinstance(block, list) and stmt in block:
            index = block.index(stmt)
            if index + 1 < len(block):
                nxt = block[index + 1]
                return nxt if isinstance(nxt, ast.stmt) else None
    return None


@rule(
    "RL042",
    "bare-acquire",
    "concurrency",
    "lock.acquire() without a with-block or an immediate try/finally "
    "release leaks the lock on any exception between acquire and "
    "release, deadlocking every other thread that needs it.",
)
def check_bare_acquire(module: ModuleContext) -> Iterator[Violation]:
    for node in ast.walk(module.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
        ):
            continue
        key = _receiver_key(node.func.value)
        # (a) enclosed in a try whose finally releases this receiver.
        protected = False
        current = parent(node)
        while current is not None:
            if isinstance(current, ast.Try) and _releases_in(current.finalbody, key):
                protected = True
                break
            current = parent(current)
        # (b) the very next statement is such a try.
        if not protected:
            stmt = _statement_of(node)
            nxt = _next_sibling(stmt) if stmt is not None else None
            protected = isinstance(nxt, ast.Try) and _releases_in(nxt.finalbody, key)
        if not protected:
            yield Violation.at(
                module,
                "RL042",
                node,
                "bare .acquire() with no matching try/finally release; "
                "use 'with lock:' (or acquire immediately followed by "
                "try/finally: lock.release())",
            )
