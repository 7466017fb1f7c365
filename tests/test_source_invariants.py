"""Source invariants that no behavioural test can see.

The paper's tables and figures reproduce only because every run is
byte-identical across processes and hash seeds, and ``iotls serve``
answers only while nothing blocks its event loop.  A few source
disciplines behind that escape every run-level test: set order and
whole-second clock stamps agree within one process, a torn ledger line
needs two concurrent writers, and a blocking call on the loop only
shows as latency.  So each discipline is a rule over the AST.

A rule is a function from parsed modules to ``path:line: message``
offenders.  Each ``test_no_*``/``test_every_*``/``test_only_*`` test
runs one rule over every ``*.py`` under ``src/repro/`` and ``tools/``
(parsed once) and asserts that there are none; its allowlist, if any,
is named next to the rule.  ``SNIPPETS`` pins every rule from both
sides: a bad snippet must be flagged, and a good one, the idiom the
code uses instead, must not.  The ``RLxxx`` codes name the invariants
in the docs and history:

* RL002 wall-clock read, RL003 unordered-set iteration,
* RL013 ledger-write boundary, RL022 stream-schema contract,
* RL030 silent exception, RL041 blocking call on the event loop,
* RL042 bare lock acquire.

RL011 (every span entered in a ``with`` block) went with span tracing:
``--profile`` is a ``cProfile`` run and nothing opens a span.
"""

from __future__ import annotations

import ast
import functools
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.telemetry.schemas import is_registered

REPO_ROOT = Path(__file__).resolve().parents[1]


@dataclass
class Module:
    """One parsed source file; every AST node carries a ``parent`` link."""

    path: str  # repo-relative posix path
    name: str  # dotted module name
    tree: ast.Module
    #: local name -> dotted target, relative imports resolved.
    imports: dict[str, str]

    def dotted(self, func: ast.expr) -> str | None:
        """The dotted name a call target spells through this module's
        imports: ``t.time`` after ``import time as t`` is ``time.time``."""
        chain = []
        while isinstance(func, ast.Attribute):
            chain.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            return None
        chain.append(self.imports.get(func.id, func.id))
        return ".".join(reversed(chain))

    def at(self, node: ast.AST, message: str) -> str:
        return f"{self.path}:{node.lineno}: {message}"


def parent(node: ast.AST) -> ast.AST | None:
    return getattr(node, "parent", None)


def parse(path: str, source: str) -> Module:
    tree = ast.parse(source, filename=path)
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node
    parts = path.removeprefix("src/").removesuffix(".py").split("/")
    package = parts[:-1]
    imports = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.partition(".")[0]
                imports[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom):
            if node.level > len(package) + 1:
                continue
            base = package[: len(package) + 1 - node.level] if node.level else []
            base = ".".join(base + ([node.module] if node.module else []))
            for alias in node.names:
                imports[alias.asname or alias.name] = f"{base}.{alias.name}"
    name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
    return Module(path, name, tree, imports)


@functools.cache
def source_tree() -> tuple[Module, ...]:
    """Every ``*.py`` under ``src/repro/`` and ``tools/``, parsed once."""
    paths = [
        *sorted((REPO_ROOT / "src" / "repro").rglob("*.py")),
        *sorted((REPO_ROOT / "tools").rglob("*.py")),
    ]
    return tuple(
        parse(path.relative_to(REPO_ROOT).as_posix(), path.read_text(encoding="utf-8"))
        for path in paths
    )


def calls(tree: ast.AST):
    return (node for node in ast.walk(tree) if isinstance(node, ast.Call))


# ----------------------------------------------------------------------
# RL002 wall-clock-read
# ----------------------------------------------------------------------
#: Wall clocks differ per process and entropy differs per run, so either
#: one reaching an artifact breaks byte-identical reruns.
NONDETERMINISTIC_CALLS = frozenset(
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

#: The telemetry clock boundary: what it reads stays out of manifests.
CLOCK_BOUNDARY = "src/repro/telemetry/"

#: (path, call) reads allowed outside the boundary.
CLOCK_OPT_OUTS = {
    # generate_keypair(seed=None) is the documented non-reproducible mode
    # for ad-hoc keys; every catalog and CA key passes a seed, and unseeded
    # keys never reach manifests or exported artifacts.
    ("src/repro/pki/simcrypto.py", "os.urandom"),
}


def wall_clock_reads(modules) -> list[str]:
    return [
        module.at(
            call,
            f"{target}() outside the telemetry clock boundary; derive times from "
            "the seeded simulation or move the reading into repro.telemetry",
        )
        for module in modules
        if not module.path.startswith(CLOCK_BOUNDARY)
        for call in calls(module.tree)
        if (target := module.dotted(call.func)) in NONDETERMINISTIC_CALLS
        and (module.path, target) not in CLOCK_OPT_OUTS
    ]


def test_no_wall_clock_read_outside_the_clock_boundary():
    assert wall_clock_reads(source_tree()) == []


# ----------------------------------------------------------------------
# RL003 unordered-set-iteration
# ----------------------------------------------------------------------
def _is_set_typed(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_typed(node.left) or _is_set_typed(node.right)
    return False


def _consumed_in_order(node: ast.expr) -> bool:
    """True when ``node`` feeds a loop, ``list``/``tuple``/``enumerate``/
    ``iter`` or ``str.join`` directly (``sorted``, ``len`` and ``in`` are
    order-safe)."""
    up = parent(node)
    if isinstance(up, (ast.For, ast.comprehension)):
        return up.iter is node
    if isinstance(up, ast.Call) and node in up.args:
        if isinstance(up.func, ast.Name):
            return up.func.id in {"list", "tuple", "enumerate", "iter"}
        return isinstance(up.func, ast.Attribute) and up.func.attr == "join"
    return False


def set_order_iterations(modules) -> list[str]:
    """Set order depends on ``PYTHONHASHSEED``, so two runs of the same
    command differ unless the set passes through ``sorted`` first."""
    return [
        module.at(node, "iterating a set in hash order; wrap it in sorted(...)")
        for module in modules
        for node in ast.walk(module.tree)
        if isinstance(node, ast.expr) and _is_set_typed(node) and _consumed_in_order(node)
    ]


def test_no_set_iterated_in_hash_order():
    assert set_order_iterations(source_tree()) == []


# ----------------------------------------------------------------------
# RL013 ledger-write-boundary
# ----------------------------------------------------------------------
#: The one module that opens the run ledger for writing: one O_APPEND
#: ``write()`` per entry keeps concurrent writers from tearing lines.
LEDGER_BOUNDARY = "src/repro/telemetry/ledger.py"

_WRITE_OS_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}


def _is_write_mode(value: object) -> bool:
    """``"a"``, ``"wb"``, ``"r+"``, ...: a short ``open()`` mode that writes."""
    return (
        isinstance(value, str)
        and 0 < len(value) <= 3
        and set(value) <= set("rwaxbt+U")
        and bool(set(value) & set("wax+"))
    )


def _opens_for_writing(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    if not (
        (isinstance(func, ast.Name) and func.id == "open")
        or (isinstance(func, ast.Attribute) and func.attr == "open")
    ):
        return False
    arguments = [*call.args, *(keyword.value for keyword in call.keywords)]
    return any(
        (isinstance(sub, ast.Constant) and _is_write_mode(sub.value))
        or (isinstance(sub, ast.Attribute) and sub.attr in _WRITE_OS_FLAGS)
        or (isinstance(sub, ast.Name) and sub.id in _WRITE_OS_FLAGS)
        for argument in arguments
        for sub in ast.walk(argument)
    )


def _mentions_ledger(call: ast.Call) -> bool:
    for sub in ast.walk(call):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            text = sub.value
        elif isinstance(sub, ast.Name):
            text = sub.id
        elif isinstance(sub, ast.Attribute):
            text = sub.attr
        else:
            continue
        if "ledger" in text.lower():
            return True
    return False


def ledger_writes(modules) -> list[str]:
    return [
        module.at(
            call,
            "ledger opened for writing outside repro.telemetry.ledger; append "
            "through append_entry (or rewrite_ledger) so entries stay atomic",
        )
        for module in modules
        if module.path != LEDGER_BOUNDARY
        for call in calls(module.tree)
        if _opens_for_writing(call) and _mentions_ledger(call)
    ]


def test_only_the_ledger_module_writes_the_ledger():
    assert ledger_writes(source_tree()) == []


# ----------------------------------------------------------------------
# RL022 stream-schema-contract
# ----------------------------------------------------------------------
SCHEMA_ID = re.compile(r"iotls-[a-z][a-z0-9-]*/[0-9]+")


def schema_id_literals(modules) -> list[str]:
    """Every ``iotls-<name>/<N>`` a producer publishes comes from the
    ``repro.telemetry.schemas`` registry as an imported constant, so
    producers, consumers and contract checks cannot drift apart.
    Docstrings may name a schema without publishing it."""
    offenders = []
    for module in modules:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                continue
            if isinstance(parent(node), ast.Expr):
                continue
            for match in sorted(set(SCHEMA_ID.findall(node.value))):
                offenders.append(
                    module.at(
                        node,
                        f"registered schema id '{match}' is hard-coded; import its "
                        "constant from repro.telemetry.schemas"
                        if is_registered(match)
                        else f"'{match}' is not a registered stream schema; declare "
                        "it in repro.telemetry.schemas before publishing it",
                    )
                )
    return offenders


def test_every_schema_id_comes_from_the_registry():
    assert schema_id_literals(source_tree()) == []


# ----------------------------------------------------------------------
# RL030 silent-exception
# ----------------------------------------------------------------------
def _is_broad(exc: ast.expr) -> bool:
    if isinstance(exc, ast.Name):
        return exc.id in {"Exception", "BaseException"}
    return isinstance(exc, ast.Tuple) and any(_is_broad(item) for item in exc.elts)


def _swallows(handler: ast.ExceptHandler) -> bool:
    """A body of only ``pass``, ``...`` or a string discards the error."""
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        for stmt in handler.body
    )


def silent_exceptions(modules) -> list[str]:
    """A swallowed failure does not crash a measurement run: it publishes
    a wrong artifact instead."""
    offenders = []
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                offenders.append(module.at(node, "bare `except:`; name the types handled"))
            elif _is_broad(node.type) and _swallows(node):
                offenders.append(
                    module.at(node, "`except Exception` that only passes; handle, log or re-raise")
                )
    return offenders


def test_no_exception_is_silently_swallowed():
    assert silent_exceptions(source_tree()) == []


# ----------------------------------------------------------------------
# RL041 blocking-call-in-event-loop
# ----------------------------------------------------------------------
#: Dotted calls that block the calling thread.
BLOCKING_CALLS = frozenset(
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

#: Method names that are file I/O on any receiver.  Bare ``.read`` and
#: ``.write`` are absent: ``asyncio.StreamWriter.write`` does not block.
BLOCKING_METHODS = frozenset(
    {"open", "read_text", "read_bytes", "write_text", "write_bytes", "mkdir", "unlink", "replace", "rename"}
)

#: Blocking by contract though their bodies defer the work: a pool
#: dispatch joins a worker round-trip.
BLOCKING_BY_CONTRACT = (
    "repro.parallel.pool.WarmWorkerPool.map",
    "repro.parallel.pool.WarmWorkerPool.imap",
)


def _direct_blocking_reason(module: Module, call: ast.Call) -> str | None:
    dotted = module.dotted(call.func)
    if dotted in BLOCKING_CALLS:
        return f"'{dotted}' blocks the calling thread"
    if dotted == "open":
        return "builtin open() performs synchronous file I/O"
    if isinstance(call.func, ast.Attribute) and call.func.attr in BLOCKING_METHODS:
        return f".{call.func.attr}() performs synchronous file I/O"
    return None


def _is_offload(module: Module, call: ast.Call) -> bool:
    """``asyncio.to_thread``/``run_in_executor``: what is passed in never
    runs on the loop."""
    return module.dotted(call.func) == "asyncio.to_thread" or (
        isinstance(call.func, ast.Attribute) and call.func.attr in {"to_thread", "run_in_executor"}
    )


class CallGraph:
    """The module-level functions and methods of ``modules`` by dotted
    qualname, and the calls between them that resolve through imports,
    one package re-export hop at a time, ``self.method`` and
    ``Class(...)`` (to ``Class.__init__``).  An unresolved call adds no
    edge: it can hide a finding, never invent one."""

    def __init__(self, modules):
        self.imports = {module.name: module.imports for module in modules}
        #: qualname -> (module, def node, enclosing class qualname)
        self.functions: dict[str, tuple[Module, ast.AST, str | None]] = {}
        for module in modules:
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.functions[f"{module.name}.{node.name}"] = (module, node, None)
                elif isinstance(node, ast.ClassDef):
                    cls = f"{module.name}.{node.name}"
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            self.functions[f"{cls}.{item.name}"] = (module, item, cls)
        self.calls = {
            qual: {
                callee
                for call in calls(node)
                if (callee := self.resolve(module, call.func, cls)) not in (None, qual)
            }
            for qual, (module, node, cls) in self.functions.items()
        }

    def canonical(self, dotted: str, hops: int = 0) -> str | None:
        for candidate in (dotted, f"{dotted}.__init__"):
            if candidate in self.functions:
                return candidate
        prefix, _, leaf = dotted.rpartition(".")
        forwarded = self.imports.get(prefix, {}).get(leaf)
        if hops < 4 and forwarded not in (None, dotted):
            return self.canonical(forwarded, hops + 1)
        return None

    def resolve(self, module: Module, func: ast.expr, cls: str | None) -> str | None:
        chain = []
        while isinstance(func, ast.Attribute):
            chain.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            return None
        chain.reverse()
        if func.id == "self":
            return self.canonical(f"{cls}.{chain[0]}") if cls and len(chain) == 1 else None
        base = module.imports.get(func.id, f"{module.name}.{func.id}")
        return self.canonical(".".join([base, *chain]))

    def is_async(self, qual: str) -> bool:
        return isinstance(self.functions[qual][1], ast.AsyncFunctionDef)

    def blocking(self) -> dict[str, str]:
        """Sync qualname -> why it blocks, directly or through a callee."""
        blocking = {qual: "pool dispatch joins a worker round-trip" for qual in BLOCKING_BY_CONTRACT}
        for qual, (module, node, _) in self.functions.items():
            if qual in blocking or self.is_async(qual):
                continue
            for call in calls(node):
                if reason := _direct_blocking_reason(module, call):
                    blocking[qual] = reason
                    break
        changed = True
        while changed:
            changed = False
            for qual, callees in self.calls.items():
                if qual in blocking or self.is_async(qual):
                    continue
                callee = next((c for c in sorted(callees) if c in blocking), None)
                if callee is not None:
                    blocking[qual] = f"calls blocking '{callee}'"
                    changed = True
        return blocking


def _own_calls(node: ast.AST):
    """The calls in a function body, not in its nested defs or lambdas."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Call):
            yield current
        if not isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(current))


def blocking_calls_in_async(modules) -> list[str]:
    """A synchronous file, process or sleep call in an ``async def``,
    directly or through the sync functions it calls, stalls every
    coroutine on the loop."""
    graph = CallGraph(modules)
    blocking = graph.blocking()
    offenders = []
    for qual in sorted(graph.functions):
        module, node, cls = graph.functions[qual]
        if not graph.is_async(qual):
            continue
        for call in _own_calls(node):
            ancestor = parent(call)
            while ancestor is not None and not (
                isinstance(ancestor, ast.Call) and _is_offload(module, ancestor)
            ):
                ancestor = parent(ancestor)
            if ancestor is not None:
                continue
            reason = _direct_blocking_reason(module, call)
            callee = graph.resolve(module, call.func, cls)
            if reason is None and callee in blocking:
                reason = f"'{callee}' blocks: {blocking[callee]}"
            if reason is not None:
                offenders.append(
                    module.at(
                        call,
                        f"blocking call in async '{qual}': {reason}; "
                        "offload with 'await asyncio.to_thread(...)'",
                    )
                )
    return offenders


def test_no_blocking_call_on_the_event_loop():
    assert blocking_calls_in_async(source_tree()) == []


# ----------------------------------------------------------------------
# RL042 bare-acquire
# ----------------------------------------------------------------------
def lock_acquires(modules) -> list[str]:
    """An exception between ``acquire()`` and ``release()`` leaks the
    lock and deadlocks every thread that needs it; ``with lock:``
    releases on every exit, so the tree takes locks no other way."""
    return [
        module.at(call, ".acquire() call; take the lock with 'with lock:'")
        for module in modules
        for call in calls(module.tree)
        if isinstance(call.func, ast.Attribute) and call.func.attr == "acquire"
    ]


def test_no_bare_lock_acquire():
    assert lock_acquires(source_tree()) == []


# ----------------------------------------------------------------------
# Both sides of every rule
# ----------------------------------------------------------------------
def bad(rule, sources, expected: str, id: str):
    """``sources`` is one snippet (as ``snippet.py``) or ``{path: source}``;
    the rule must report exactly one offender, containing ``expected``."""
    return pytest.param(rule, sources, expected, id=f"{id}-bad")


def good(rule, sources, id: str):
    return pytest.param(rule, sources, None, id=f"{id}-good")


#: A fixture package: a method, a ``self`` call, a relative import and
#: a package re-export between an async handler and a blocking leaf.
MINI_PACKAGE = {
    "src/pkg/__init__.py": "from .util import helper\n",
    "src/pkg/util.py": "def helper():\n    return leaf()\ndef leaf():\n    return open('x')\n",
    "src/pkg/app.py": "from . import util\nfrom pkg import helper\n"
    "class Service:\n    async def run(self):\n        return self._load()\n"
    "    def _load(self):\n        return helper()\n",
}

_TELEMETRY_CLOCK = "src/repro/telemetry/clock.py"
_SIMCRYPTO = "src/repro/pki/simcrypto.py"

SNIPPETS = [
    bad(wall_clock_reads, "import time\nnow = time.time()\n", "time.time()", "RL002-time.time"),
    bad(wall_clock_reads, "from time import time\nnow = time()\n", "time.time()", "RL002-from-time-import-time"),
    bad(wall_clock_reads, "from datetime import datetime\nnow = datetime.now()\n", "datetime.datetime.now()", "RL002-datetime.now"),
    bad(wall_clock_reads, "import datetime\nnow = datetime.datetime.utcnow()\n", "datetime.datetime.utcnow()", "RL002-utcnow"),
    bad(wall_clock_reads, "import os\nnoise = os.urandom(8)\n", "os.urandom()", "RL002-os.urandom"),
    bad(wall_clock_reads, "import uuid\nrun_id = uuid.uuid4()\n", "uuid.uuid4()", "RL002-uuid4"),
    bad(wall_clock_reads, {_SIMCRYPTO: "import time\nnow = time.time()\n"}, "time.time()", "RL002-opt-out-is-one-call"),
    good(
        wall_clock_reads,
        "from time import perf_counter\nfrom datetime import datetime\n"
        "started = perf_counter()\nwhen = datetime(2018, 1, 1)\n"
        "parsed = datetime.fromisoformat('2018-01-01')\n",
        "RL002-monotonic-and-simulated-time",
    ),
    good(wall_clock_reads, {_TELEMETRY_CLOCK: "import time\nnow = time.time()\n"}, "RL002-clock-boundary"),
    good(wall_clock_reads, {_SIMCRYPTO: "import os\nsecret = os.urandom(32)\n"}, "RL002-simcrypto-opt-out"),
    bad(set_order_iterations, "for item in {'b', 'a'}:\n    print(item)\n", "hash order", "RL003-for-loop"),
    bad(set_order_iterations, "names = list({record for record in []})\n", "hash order", "RL003-list-of-setcomp"),
    bad(set_order_iterations, "out = ','.join(set('abc'))\n", "hash order", "RL003-join"),
    bad(set_order_iterations, "rows = [x for x in set([1, 2])]\n", "hash order", "RL003-comprehension"),
    good(
        set_order_iterations,
        "devices = sorted({r for r in ['b', 'a']})\nfor name in sorted(set('abc')):\n"
        "    print(name)\nn = len({1, 2})\npresent = 'a' in {'a', 'b'}\n",
        "RL003-sorted-len-in",
    ),
    bad(
        ledger_writes,
        "def save(entry, ledger_path):\n    with open(ledger_path, 'a') as fh:\n        fh.write(entry)\n",
        "append_entry",
        "RL013-open-append",
    ),
    bad(ledger_writes, "from pathlib import Path\nPath('.iotls/ledger.jsonl').write_text('{}')\n", "append_entry", "RL013-write_text"),
    bad(ledger_writes, "def save(ledger_path):\n    ledger_path.open('w').write('entry')\n", "append_entry", "RL013-path-open-w"),
    bad(ledger_writes, "import os\nfd = os.open('ledger.jsonl', os.O_WRONLY | os.O_APPEND)\n", "append_entry", "RL013-os.open"),
    good(
        ledger_writes,
        "from pathlib import Path\ndef load(ledger_path):\n    return Path(ledger_path).read_text()\n"
        "def dump(manifest_path, payload):\n    with open(manifest_path, 'w') as fh:\n        fh.write(payload)\n",
        "RL013-reads-and-other-writes",
    ),
    good(
        ledger_writes,
        "from repro.telemetry import ledger as run_ledger\n"
        "def record(entry, path):\n    run_ledger.append_entry(entry, path)\n",
        "RL013-append_entry",
    ),
    good(
        ledger_writes,
        {LEDGER_BOUNDARY: "import os\ndef append(line, ledger_path):\n    fd = os.open(ledger_path, os.O_WRONLY | os.O_APPEND)\n"},
        "RL013-ledger-module",
    ),
    bad(schema_id_literals, "SCHEMA = 'iotls-trace-stream/1'\n", "hard-coded", "RL022-registered-id"),
    bad(schema_id_literals, "SCHEMA = 'iotls-mystery/9'\n", "not a registered", "RL022-unregistered-id"),
    good(schema_id_literals, '"""Writes iotls-trace-stream/1 bodies."""\nX = 1\n', "RL022-docstring"),
    good(schema_id_literals, "from repro.telemetry.schemas import REGISTRY\nSCHEMA = REGISTRY[0]\n", "RL022-imported-constant"),
    bad(silent_exceptions, "try:\n    x = 1\nexcept:\n    x = 2\n", "bare", "RL030-bare-except"),
    bad(silent_exceptions, "try:\n    x = 1\nexcept Exception:\n    pass\n", "only passes", "RL030-swallowed"),
    good(
        silent_exceptions,
        "try:\n    x = 1\nexcept (OSError, ValueError) as exc:\n    raise RuntimeError('context') from exc\n",
        "RL030-typed",
    ),
    good(
        silent_exceptions,
        "def run(log):\n    try:\n        x = 1\n    except Exception as exc:\n"
        "        log.error('failed', error=str(exc))\n        raise\n",
        "RL030-broad-but-handled",
    ),
    bad(
        blocking_calls_in_async,
        "from pathlib import Path\nasync def handler(path: Path):\n    return path.read_text()\n",
        ".read_text()",
        "RL041-file-io",
    ),
    bad(blocking_calls_in_async, "import time\nasync def handler():\n    time.sleep(1)\n", "'time.sleep'", "RL041-time.sleep"),
    bad(
        blocking_calls_in_async,
        "import time\ndef backoff():\n    time.sleep(0.5)\nasync def handler():\n    backoff()\n",
        "'snippet.backoff' blocks",
        "RL041-transitive",
    ),
    bad(
        blocking_calls_in_async,
        MINI_PACKAGE,
        "'pkg.app.Service._load' blocks: calls blocking 'pkg.util.helper'",
        "RL041-through-self-and-reexport",
    ),
    bad(
        blocking_calls_in_async,
        {
            "src/pkg/__init__.py": "",
            "src/pkg/util.py": "import time\nclass Backoff:\n    def __init__(self):\n        time.sleep(1)\n",
            "src/pkg/app.py": "from . import util\nasync def handler():\n    util.Backoff()\n",
        },
        "'pkg.util.Backoff.__init__' blocks",
        "RL041-constructor-through-relative-import",
    ),
    good(
        blocking_calls_in_async,
        "import asyncio\nfrom pathlib import Path\n"
        "async def handler(path: Path):\n    return await asyncio.to_thread(path.read_text)\n",
        "RL041-to_thread",
    ),
    good(
        blocking_calls_in_async,
        "def shape(record):\n    return {'n': record}\nasync def handler(record):\n    return shape(record)\n",
        "RL041-nonblocking-helper",
    ),
    good(
        blocking_calls_in_async,
        "from pathlib import Path\ndef loader(path: Path):\n    return path.read_text()\n",
        "RL041-sync-context",
    ),
    bad(lock_acquires, "def hold(lock):\n    lock.acquire()\n    return 1\n", "with lock:", "RL042-bare"),
    bad(
        lock_acquires,
        "def hold(a, b):\n    a.acquire()\n    try:\n        return 1\n    finally:\n        b.release()\n",
        "with lock:",
        "RL042-mismatched-release",
    ),
    bad(
        lock_acquires,
        "def hold(lock):\n    lock.acquire()\n    try:\n        return 1\n    finally:\n        lock.release()\n",
        "with lock:",
        "RL042-acquire-then-try-finally",
    ),
    bad(
        lock_acquires,
        "def hold(lock):\n    try:\n        lock.acquire()\n        return 1\n    finally:\n        lock.release()\n",
        "with lock:",
        "RL042-acquire-inside-try-finally",
    ),
    good(lock_acquires, "def hold(lock):\n    with lock:\n        return 1\n", "RL042-with"),
]


@pytest.mark.parametrize("rule, sources, expected", SNIPPETS)
def test_rule_on_snippet(rule, sources, expected):
    if isinstance(sources, str):
        sources = {"snippet.py": sources}
    offenders = rule([parse(path, source) for path, source in sources.items()])
    if expected is None:
        assert offenders == []
    else:
        assert len(offenders) == 1 and expected in offenders[0], offenders


# ----------------------------------------------------------------------
# The helpers under the rules
# ----------------------------------------------------------------------
def test_clock_opt_outs_are_not_stale():
    """An opt-out whose call is gone would silently exempt a new one."""
    reads = {
        (module.path, module.dotted(call.func)) for module in source_tree() for call in calls(module.tree)
    }
    assert sorted(CLOCK_OPT_OUTS - reads) == []


def test_bench_tools_have_no_wall_clock_reads():
    bench_tools = [module for module in source_tree() if module.path.startswith("tools/bench_")]
    assert bench_tools
    assert wall_clock_reads(bench_tools) == []


@pytest.fixture()
def mini_graph():
    return CallGraph([parse(path, source) for path, source in MINI_PACKAGE.items()])


def test_call_graph_symbol_table(mini_graph):
    assert sorted(mini_graph.functions) == [
        "pkg.app.Service._load",
        "pkg.app.Service.run",
        "pkg.util.helper",
        "pkg.util.leaf",
    ]
    assert mini_graph.functions["pkg.app.Service._load"][2] == "pkg.app.Service"
    assert mini_graph.is_async("pkg.app.Service.run")
    assert not mini_graph.is_async("pkg.util.helper")


def test_call_graph_follows_reexport_alias(mini_graph):
    # `from pkg import helper` lands on the definition re-exported by
    # pkg/__init__.py.
    assert mini_graph.canonical("pkg.helper") == "pkg.util.helper"
    assert mini_graph.calls["pkg.app.Service._load"] == {"pkg.util.helper"}
