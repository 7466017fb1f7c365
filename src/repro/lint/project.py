"""Pass 1 of the whole-program analyzer: the project graph.

Per-file AST matching cannot see which synchronous call chains an
``async def`` reaches -- the fact RL041 needs to keep ``iotls serve``'s
event loop from blocking.  :class:`ProjectGraph` makes it queryable: it
ingests every parsed :class:`~repro.lint.walker.ModuleContext` and
builds

* a symbol table of module-level functions, classes, and methods keyed
  by dotted qualname (``repro.parallel.pool.WarmWorkerPool.map``),
* per-module alias maps that, unlike the module-scope import map,
  resolve **relative** imports (``from .. import telemetry``) and
  follow one level of package re-exports (``repro.telemetry.AccessLog``
  -> ``repro.telemetry.access.AccessLog``),
* a call graph over those qualnames, with ``self.method()`` resolved
  inside the enclosing class and ``Class(...)`` instantiation edged to
  ``Class.__init__``.

Resolution is deliberately conservative (see docs/static-analysis.md):
attribute chains that do not bottom out in an importable name or
``self`` stay unresolved, there is no inheritance walk, and an
unresolved call simply contributes no edge -- missing edges cause
missed findings, never false ones.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .walker import ModuleContext

__all__ = ["FunctionInfo", "ProjectGraph", "build_graph"]


@dataclass
class FunctionInfo:
    """One module-level function or method in the symbol table."""

    qualname: str
    module: ModuleContext
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_qualname: str | None = None

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)


@dataclass
class ProjectGraph:
    """Everything pass 2 queries about the program as a whole."""

    #: dotted module name -> parsed context (modules with names only).
    modules: dict[str, ModuleContext] = field(default_factory=dict)
    #: dotted qualname -> function/method info.
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: dotted qualname -> class node.
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    #: module name -> local alias -> canonical dotted target.
    aliases: dict[str, dict[str, str]] = field(default_factory=dict)
    #: caller qualname -> set of resolved callee qualnames.
    calls: dict[str, set[str]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def canonical(self, dotted: str, _depth: int = 0) -> str | None:
        """Map a dotted name to a known qualname, following re-exports.

        ``repro.telemetry.AccessLog`` resolves through the package's
        ``from .access import AccessLog`` to
        ``repro.telemetry.access.AccessLog``.  Depth-limited so alias
        cycles cannot loop.
        """
        if dotted in self.functions or dotted in self.classes:
            return dotted
        if _depth >= 4 or "." not in dotted:
            return None
        prefix, leaf = dotted.rsplit(".", 1)
        forwarded = self.aliases.get(prefix, {}).get(leaf)
        if forwarded is not None and forwarded != dotted:
            return self.canonical(forwarded, _depth + 1)
        return None

    def resolve(
        self,
        module: ModuleContext,
        target: ast.expr,
        *,
        class_qualname: str | None = None,
    ) -> str | None:
        """Resolve a call/reference expression to a project qualname.

        Handles plain names (local defs and import aliases), dotted
        module-qualified chains, and one-level ``self.method`` inside
        ``class_qualname``.  Returns ``None`` when the target does not
        bottom out in something the symbol table knows.
        """
        chain: list[str] = []
        node = target
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        chain.reverse()
        aliases = self.aliases.get(module.module, {})
        if node.id == "self":
            if class_qualname is None or len(chain) != 1:
                return None
            return self.canonical(f"{class_qualname}.{chain[0]}")
        base = aliases.get(node.id)
        if base is None:
            # A name defined in this very module (function, class, or a
            # method on a locally defined class).
            base = f"{module.module}.{node.id}" if module.module else node.id
        return self.canonical(".".join([base] + chain))

    def callee_function(self, qualname: str) -> str | None:
        """The function a call edge lands on (``Class`` -> ``__init__``)."""
        if qualname in self.functions:
            return qualname
        if qualname in self.classes:
            init = f"{qualname}.__init__"
            if init in self.functions:
                return init
        return None


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------
def _relative_base(module: ModuleContext, level: int) -> str | None:
    """The package an ``ImportFrom`` with ``level`` dots resolves against."""
    if not module.module:
        return None
    parts = module.module.split(".")
    if not module.path.endswith("__init__.py"):
        parts = parts[:-1]
    drop = level - 1
    if drop > len(parts):
        return None
    if drop:
        parts = parts[:-drop]
    return ".".join(parts)


def _collect_aliases(module: ModuleContext) -> dict[str, str]:
    """Local name -> canonical dotted target, relative imports included."""
    aliases: dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.asname:
                    aliases[item.asname] = item.name
                else:
                    aliases[item.name.split(".")[0]] = item.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module
            else:
                base = _relative_base(module, node.level)
                if base is None:
                    continue
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            if base is None:
                continue
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{base}.{item.name}"
    return aliases


def _collect_symbols(graph: ProjectGraph, module: ModuleContext) -> None:
    """Module-level functions, classes and methods for one file."""
    mod = module.module
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{mod}.{node.name}"
            graph.functions[qual] = FunctionInfo(qual, module, node)
        elif isinstance(node, ast.ClassDef):
            class_qual = f"{mod}.{node.name}"
            graph.classes[class_qual] = node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{class_qual}.{item.name}"
                    graph.functions[qual] = FunctionInfo(
                        qual, module, item, class_qualname=class_qual
                    )


def _collect_calls(graph: ProjectGraph) -> None:
    """Resolved call edges, per function (nested defs count as executed)."""
    for qual, info in graph.functions.items():
        edges = graph.calls.setdefault(qual, set())
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = graph.resolve(
                info.module, node.func, class_qualname=info.class_qualname
            )
            if resolved is None:
                continue
            callee = graph.callee_function(resolved)
            if callee is not None and callee != qual:
                edges.add(callee)


def build_graph(contexts: list[ModuleContext]) -> ProjectGraph:
    """Assemble the whole-program graph from parsed module contexts."""
    graph = ProjectGraph()
    for module in contexts:
        if module.module:
            graph.modules[module.module] = module
            graph.aliases[module.module] = _collect_aliases(module)
    for module in graph.modules.values():
        _collect_symbols(graph, module)
    _collect_calls(graph)
    return graph
