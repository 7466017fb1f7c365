"""Pass 2, concurrency family: RL040-RL043 over the project graph.

These rules only run under ``--whole-program`` because every one of
them needs facts no single file contains: which functions execute on
worker threads (RL040), which synchronous call chains an ``async def``
reaches (RL041), and which dataclasses cross a spawn boundary (RL043).

False-positive policy (see docs/static-analysis.md): each rule requires
*positive* evidence before it fires -- RL040 only inspects functions
proven thread-reachable AND only state whose module/class declares a
lock; RL041 only flags calls that resolve to a known-blocking target;
RL043 only inspects dataclasses proven to cross a dispatch site.  An
unresolved name therefore costs recall, never precision.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .project import ProjectGraph
from .registry import Violation, rule
from .walker import parent

__all__ = [
    "BLOCKING_ATTR_CALLS",
    "BLOCKING_DOTTED_CALLS",
    "SEEDED_BLOCKING_QUALNAMES",
    "UNPICKLABLE_TYPE_NAMES",
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

# ----------------------------------------------------------------------
# RL043 configuration
# ----------------------------------------------------------------------

#: Annotation base names that cannot cross a spawn boundary (unpicklable
#: or process/host-local).
UNPICKLABLE_TYPE_NAMES = frozenset(
    {
        "Lock",
        "RLock",
        "Condition",
        "Event",
        "Semaphore",
        "BoundedSemaphore",
        "Future",
        "Task",
        "Queue",
        "SimpleQueue",
        "StreamReader",
        "StreamWriter",
        "socket",
        "Socket",
        "Pool",
        "Process",
        "Thread",
        "IO",
        "TextIO",
        "BinaryIO",
        "TextIOBase",
        "TextIOWrapper",
        "BufferedReader",
        "BufferedWriter",
    }
)


def _violation(
    module, code: str, node: ast.AST, message: str
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
# RL040 shared-mutable-state-without-lock
# ----------------------------------------------------------------------
def _with_guards(graph: ProjectGraph, info, node: ast.AST) -> list[str]:
    """Names of lock objects whose ``with`` blocks enclose ``node``.

    Returns module-level lock names as-is and ``self.x`` locks as
    ``self.x``.
    """
    guards: list[str] = []
    current = parent(node)
    while current is not None:
        if isinstance(current, (ast.With, ast.AsyncWith)):
            for item in current.items:
                expr = item.context_expr
                if isinstance(expr, ast.Name):
                    aliased = graph.aliases.get(info.module.module, {}).get(expr.id)
                    guards.append(aliased.rsplit(".", 1)[-1] if aliased else expr.id)
                elif (
                    isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                ):
                    guards.append(f"self.{expr.attr}")
        current = parent(current)
    return guards


def _global_declarations(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names: set[str] = set()
    for child in _walk_own_body(node):
        if isinstance(child, ast.Global):
            names.update(child.names)
    return names


def _store_base(target: ast.expr) -> tuple[str, ast.expr] | None:
    """(kind-root, node) for a store target: Name or self-attribute base."""
    node = target
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return f"self.{node.attr}", target
        node = node.value
    if isinstance(node, ast.Name):
        return node.id, target
    return None


@rule(
    "RL040",
    "shared-state-without-lock",
    "concurrency",
    "State a module or class protects with a declared lock must only be "
    "written under that lock from thread-reachable code; an unguarded "
    "write is a data race the GIL merely makes rare, not impossible.",
    scope="project",
)
def check_shared_state_locks(graph: ProjectGraph) -> Iterator[Violation]:
    for qualname in sorted(graph.thread_reachable):
        info = graph.functions.get(qualname)
        if info is None:
            continue
        mod = info.module.module
        module_locks = graph.module_locks.get(mod, set())
        class_locks = (
            graph.class_locks.get(info.class_qualname, set())
            if info.class_qualname
            else set()
        )
        if not module_locks and not class_locks:
            continue
        method_name = info.node.name
        globals_here = _global_declarations(info.node)
        for node in _walk_own_body(info.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
            else:
                continue
            for target in targets:
                based = _store_base(target)
                if based is None:
                    continue
                base, _ = based
                if base.startswith("self."):
                    attr = base[len("self."):]
                    if not class_locks or attr in class_locks:
                        continue
                    if method_name in ("__init__", "__post_init__", "__new__"):
                        continue
                    guards = _with_guards(graph, info, node)
                    if any(f"self.{lock}" in guards for lock in class_locks):
                        continue
                    yield _violation(
                        info.module,
                        "RL040",
                        node,
                        f"'{base}' is written in thread-reachable "
                        f"'{qualname}' without holding a declared class "
                        f"lock ({', '.join(sorted(class_locks))}); wrap the "
                        "write in 'with self.<lock>:'",
                    )
                else:
                    if not module_locks:
                        continue
                    is_global_write = base in globals_here or (
                        not isinstance(target, ast.Name)
                        and base in graph.module_globals.get(mod, set())
                    )
                    if not is_global_write or base in module_locks:
                        continue
                    guards = _with_guards(graph, info, node)
                    if any(lock in guards for lock in module_locks):
                        continue
                    yield _violation(
                        info.module,
                        "RL040",
                        node,
                        f"module global '{base}' is written in "
                        f"thread-reachable '{qualname}' without holding a "
                        f"declared module lock "
                        f"({', '.join(sorted(module_locks))})",
                    )


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
                yield _violation(
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
    scope="project",
)
def check_bare_acquire(graph: ProjectGraph) -> Iterator[Violation]:
    for name in sorted(graph.modules):
        module = graph.modules[name]
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
                if isinstance(current, ast.Try) and _releases_in(
                    current.finalbody, key
                ):
                    protected = True
                    break
                current = parent(current)
            # (b) the very next statement is such a try.
            if not protected:
                stmt = _statement_of(node)
                nxt = _next_sibling(stmt) if stmt is not None else None
                if (
                    isinstance(nxt, ast.Try)
                    and _releases_in(nxt.finalbody, key)
                ):
                    protected = True
            if not protected:
                yield _violation(
                    module,
                    "RL042",
                    node,
                    "bare .acquire() with no matching try/finally release; "
                    "use 'with lock:' (or acquire immediately followed by "
                    "try/finally: lock.release())",
                )


# ----------------------------------------------------------------------
# RL043 spawn-unsafe capture
# ----------------------------------------------------------------------
def _annotation_base_names(annotation: ast.expr) -> Iterator[str]:
    """Leaf type names mentioned by an annotation expression."""
    stack = [annotation]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Subscript):
            stack.append(node.value)
            stack.append(node.slice)
        elif isinstance(node, ast.BinOp):  # X | None unions
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, (ast.Tuple, ast.List)):
            stack.extend(node.elts)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                stack.append(ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                continue


def _is_dataclass(graph: ProjectGraph, class_qual: str) -> bool:
    node = graph.classes.get(class_qual)
    module = graph.class_modules.get(class_qual)
    if node is None or module is None:
        return False
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        dotted = module.resolve_call(target)
        if dotted in ("dataclasses.dataclass", "dataclass"):
            return True
    return False


def _spawn_crossing_classes(graph: ProjectGraph) -> set[str]:
    """Dataclasses whose instances travel through a dispatch site."""
    crossing: set[str] = set()
    for name in sorted(graph.modules):
        module = graph.modules[name]
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("map", "imap", "submit")
            ):
                continue
            class_qual = _enclosing_class(graph, module, node)
            # The worker function's first parameter annotation names the
            # task type the dispatch serialises.
            if node.args:
                worker = graph.resolve(
                    module, node.args[0], class_qualname=class_qual
                )
                worker_fn = graph.callee_function(worker) if worker else None
                if worker_fn is not None:
                    info = graph.functions[worker_fn]
                    params = info.node.args.args
                    if params and params[0].annotation is not None:
                        for base in _annotation_base_names(params[0].annotation):
                            resolved = graph.resolve(
                                info.module, ast.Name(id=base, ctx=ast.Load())
                            )
                            if resolved and _is_dataclass(graph, resolved):
                                crossing.add(resolved)
            # Inline task constructions in the dispatched arguments.
            for arg in node.args[1:]:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Call):
                        resolved = graph.resolve(
                            module, sub.func, class_qualname=class_qual
                        )
                        if resolved and _is_dataclass(graph, resolved):
                            crossing.add(resolved)
    return crossing


def _enclosing_class(graph: ProjectGraph, module, node: ast.AST) -> str | None:
    current: ast.AST | None = node
    while current is not None:
        if isinstance(current, ast.ClassDef) and module.module:
            return f"{module.module}.{current.name}"
        current = parent(current)
    return None


@rule(
    "RL043",
    "spawn-unsafe-capture",
    "concurrency",
    "Task dataclasses cross the spawn boundary by pickling; a field "
    "holding a lock, socket, stream, or executor either fails to "
    "pickle or silently duplicates host-local state in the child.",
    scope="project",
)
def check_spawn_unsafe_capture(graph: ProjectGraph) -> Iterator[Violation]:
    for class_qual in sorted(_spawn_crossing_classes(graph)):
        node = graph.classes[class_qual]
        module = graph.class_modules[class_qual]
        for item in node.body:
            if not isinstance(item, ast.AnnAssign) or item.annotation is None:
                continue
            bad = sorted(
                base
                for base in _annotation_base_names(item.annotation)
                if base in UNPICKLABLE_TYPE_NAMES
            )
            if bad:
                yield _violation(
                    module,
                    "RL043",
                    item,
                    f"field of spawn-crossing task '{class_qual}' is "
                    f"annotated with unpicklable type(s) "
                    f"{', '.join(bad)}; carry plain data and rebuild the "
                    "resource inside the worker",
                )
