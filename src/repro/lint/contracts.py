"""Pass 2, stream-contract rule: RL022 over the project graph.

The schema registry (:mod:`repro.telemetry.schemas`) is the single
source of truth for every ``iotls-<name>/<version>`` identifier the
repo publishes, and for each identifier's contract: the contract is
data on the registry entry (a declarative spec, or the strict loader
that reads the format), enforced by the registry's one checker, so it
cannot name a missing function.  RL022 closes the identifier loop
statically: an ``iotls-*/N`` string literal anywhere outside the
registry module must be a *registered* identifier -- and even then it
must not be hard-coded: producers import the constant instead.

The registry is read **statically** from its AST -- the registrations'
``name``/``version`` are literal by convention (the module docstring
says so), so the rule needs no imports and works on any checkout.
Docstrings are exempt: prose may name a schema without publishing it.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .project import ProjectGraph
from .registry import Violation, rule
from .walker import ModuleContext, parent

__all__ = ["REGISTRY_MODULE", "SCHEMA_ID_PATTERN"]

#: Where the registry lives; literals inside it are the declarations.
REGISTRY_MODULE = "repro.telemetry.schemas"

#: Matches a published schema identifier embedded anywhere in a string.
SCHEMA_ID_PATTERN = re.compile(r"iotls-[a-z][a-z0-9-]*/[0-9]+")


def registered_schemas(registry: ModuleContext) -> set[str]:
    """Every schema id the registry AST declares with a literal name/version."""
    out: set[str] = set()
    for node in ast.walk(registry.tree):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name != "StreamSchema":
            continue
        fields = {
            keyword.arg: keyword.value
            for keyword in node.keywords
            if keyword.arg is not None
        }
        schema_name = fields.get("name")
        version = fields.get("version")
        if (
            isinstance(schema_name, ast.Constant)
            and isinstance(schema_name.value, str)
            and isinstance(version, ast.Constant)
            and isinstance(version.value, int)
        ):
            out.add(f"iotls-{schema_name.value}/{version.value}")
    return out


def _is_docstring(node: ast.Constant) -> bool:
    """A bare string expression (module/class/function docstring)."""
    return isinstance(parent(node), ast.Expr)


@rule(
    "RL022",
    "stream-schema-contract",
    "api",
    "Every published iotls-*/N identifier must come from the "
    "repro.telemetry.schemas registry (import the constant, never "
    "hard-code the string), the registry that declares each contract, "
    "so producers, consumers, and CI contract checks can never drift "
    "apart.",
    scope="project",
)
def check_stream_schema_contract(graph: ProjectGraph) -> Iterator[Violation]:
    registry = graph.modules.get(REGISTRY_MODULE)
    registered = registered_schemas(registry) if registry is not None else set()

    for name in sorted(graph.modules):
        module = graph.modules[name]
        if name == REGISTRY_MODULE:
            continue
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Constant) and isinstance(node.value, str)
            ):
                continue
            if _is_docstring(node):
                continue
            for match in sorted(set(SCHEMA_ID_PATTERN.findall(node.value))):
                if match in registered:
                    yield Violation.at(
                        module,
                        "RL022",
                        node,
                        f"registered schema id '{match}' is hard-coded; "
                        f"import its constant from {REGISTRY_MODULE}",
                    )
                else:
                    yield Violation.at(
                        module,
                        "RL022",
                        node,
                        f"'{match}' is not a registered stream schema; "
                        f"declare it (and its contract) in {REGISTRY_MODULE} "
                        "before publishing it",
                    )
