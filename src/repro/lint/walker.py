"""Source discovery and AST preparation for the lint pass.

One :class:`ModuleContext` per Python file: the parsed tree (with
parent back-links annotated, since :mod:`ast` does not keep them), the
source lines for snippet extraction, the repo-relative path, the dotted
module name, and an import map that resolves local aliases back to the
canonical dotted names rules match against (``from time import time``
and ``import time as t`` both resolve to ``time.time``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

__all__ = [
    "ModuleContext",
    "iter_python_files",
    "parse_module",
    "dotted_name",
]

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", "build", "dist"}


def iter_python_files(paths: list[Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            if path not in seen:
                seen.add(path)
                yield path
            continue
        if path.is_dir():
            for found in sorted(path.rglob("*.py")):
                if any(part in _SKIP_DIRS for part in found.parts):
                    continue
                if found not in seen:
                    seen.add(found)
                    yield found


def _annotate_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._reprolint_parent = node  # type: ignore[attr-defined]


def parent(node: ast.AST) -> ast.AST | None:
    """The annotated parent of ``node`` (None at the module root)."""
    return getattr(node, "_reprolint_parent", None)


def _module_name(relative: Path) -> str:
    """Dotted module name for a repo-relative path (best effort)."""
    parts = list(relative.parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    elif parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    return ".".join(parts)


@dataclass
class ModuleContext:
    """Everything a rule needs to check one parsed source file."""

    path: str  # repo-relative posix path
    module: str  # dotted module name ("" when underivable)
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    #: local name -> canonical dotted prefix, from import statements.
    imports: dict[str, str] = field(default_factory=dict)

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    # ------------------------------------------------------------------
    def resolve_call(self, func: ast.expr) -> str | None:
        """The canonical dotted name a call target resolves to.

        Walks an ``Attribute`` chain down to its base ``Name`` and maps
        the base through the module's import aliases, so ``t.time()``
        after ``import time as t`` resolves to ``time.time`` and
        ``urandom()`` after ``from os import urandom`` to
        ``os.urandom``.  Returns ``None`` for targets that do not bottom
        out in a plain name (subscripts, calls, ...).
        """
        chain: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.imports.get(node.id, node.id)
        chain.append(base)
        return ".".join(reversed(chain))


def _collect_imports(tree: ast.Module) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


def dotted_name(path: Path, root: Path) -> str:
    try:
        return _module_name(path.relative_to(root))
    except ValueError:
        return _module_name(path)


def parse_module(path: Path, root: Path) -> ModuleContext:
    """Parse one file into a rule-ready context.

    Raises :class:`SyntaxError` upward -- an unparseable file is a lint
    failure the CLI reports, not something to skip silently.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    _annotate_parents(tree)
    try:
        relative = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relative = path.as_posix()
    return ModuleContext(
        path=relative,
        module=dotted_name(path.resolve(), root.resolve()),
        tree=tree,
        lines=source.splitlines(),
        imports=_collect_imports(tree),
    )
