"""The declarative contract vocabulary and its one checker.

A :class:`Spec` on a :mod:`repro.telemetry.schemas` entry is data that
:func:`check_spec` reads.  ``fields`` map a dotted path to a type name
(``any`` = present, ``int``, ``number``, ``str``, ``object``) or to a
tuple of allowed values; a path under an absent or non-object parent is
left to the parent's own rule.  A
:class:`When` adds fields while a guard holds for one field's value.  A
JSONL stream declares one :class:`Kind` per line ``kind`` (fields, how
many lines, strictly increasing ``seq``, must be last), and opens with
its ``header`` kind if it has one.  The schema tag is checked on a
document, a stream's header, or every line of a header-less stream.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

__all__ = ["Kind", "Spec", "When", "check_spec"]

_TYPES = {"any": object, "int": int, "number": (int, float), "str": str, "object": dict}
_MISSING = object()


@dataclass(frozen=True)
class When:
    """Fields required only while ``test`` holds for the value at ``path``."""

    path: str
    test: Callable[[Any], bool]
    fields: Mapping[str, Any]


@dataclass(frozen=True)
class Kind:
    """One line kind of a JSONL stream."""

    fields: Mapping[str, Any] = field(default_factory=dict)
    count: tuple[int, int | None] = (0, None)  # (at least, at most or None)
    seq: bool = False
    final: bool = False


@dataclass(frozen=True)
class Spec:
    """The contract of one stream (``kinds`` set) or one document."""

    fields: Mapping[str, Any] = field(default_factory=dict)
    when: tuple[When, ...] = ()
    kinds: Mapping[str, Kind] | None = None


def _lookup(value: Any, parts: list[str], label: str = "") -> Iterator[tuple[str, Any]]:
    """(label, value) for every field ``parts`` names; ``_MISSING`` if absent."""
    if not parts:
        yield label, value
    elif isinstance(value, dict):
        head, rest = parts[0], parts[1:]
        if head in value:
            yield from _lookup(value[head], rest, f"{label}.{head}".lstrip("."))
        elif not rest:
            yield f"{label}.{head}".lstrip("."), _MISSING


def _field_errors(value: dict, fields: Mapping[str, Any], where: str) -> Iterator[str]:
    for path, expected in fields.items():
        enum = isinstance(expected, tuple)
        want = f"one of {expected}" if enum else "field" if expected == "any" else expected
        for label, found in _lookup(value, path.split(".")):
            if found is _MISSING:
                yield f"{where}{label!r} {want} required"
            elif not (found in expected if enum else isinstance(found, _TYPES[expected])):
                got = repr(found) if enum else type(found).__name__
                yield f"{where}{label!r} {want} required, got {got}"


def _object_errors(spec: Spec, value: dict, kind: Kind | None, where: str) -> list[str]:
    fields = {**spec.fields, **(kind.fields if kind else {})}
    errors = list(_field_errors(value, fields, where))
    for when in spec.when:
        for _, found in _lookup(value, when.path.split(".")):
            if found is not _MISSING and when.test(found):
                errors.extend(_field_errors(value, when.fields, where))
    return errors


def _schema_errors(value: dict, schema_id: str, where: str) -> list[str]:
    if value.get("schema") == schema_id:
        return []
    return [f"{where}schema {value.get('schema')!r}, expected {schema_id!r}"]


def _stream_errors(spec: Spec, text: str, schema_id: str) -> list[str]:
    kinds = spec.kinds
    lines = [line for line in text.splitlines() if line]
    if not lines:
        return ["stream is empty"]
    errors: list[str] = []
    seen: Counter[str] = Counter()
    last_seq = 0
    for number, line in enumerate(lines, start=1):
        where = f"line {number}: "
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{where}not valid JSON ({exc})")
            continue
        if not isinstance(entry, dict):
            errors.append(f"{where}not a JSON object")
            continue
        name = entry.get("kind")
        kind = kinds.get(name) if isinstance(name, str) else None
        if number == 1 and "header" in kinds and name != "header":
            errors.append(f"{where}stream must start with a header")
        if name == "header" or "header" not in kinds:
            errors.extend(_schema_errors(entry, schema_id, where))
        if kind is None:
            errors.append(f"{where}unknown kind {name!r}")
        errors.extend(_object_errors(spec, entry, kind, where))
        if kind is None:
            continue
        seen[name] += 1
        seq = entry.get("seq")
        if kind.seq and isinstance(seq, int):
            if seq <= last_seq:
                errors.append(f"{where}seq {seq} not strictly after {last_seq}")
            last_seq = seq
        if kind.final and number != len(lines):
            errors.append(f"{where}{name} is not the final line")
    for name, kind in kinds.items():
        least, most = kind.count
        if seen[name] < least:
            bound = f"{'exactly' if least == most else 'at least'} {least}"
        elif most is not None and seen[name] > most:
            bound = f"{'exactly' if least == most else 'at most'} {most}"
        else:
            continue
        errors.append(f"{seen[name]} {name} lines (expected {bound})")
    return errors


def check_spec(spec: Spec, path: str | Path, schema_id: str) -> list[str]:
    """Every way the file at ``path`` breaks ``spec`` (empty = valid)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [f"cannot read {path}: {exc}"]
    if spec.kinds is not None:
        return _stream_errors(spec, text, schema_id)
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"not valid JSON ({exc})"]
    if not isinstance(document, dict):
        return ["document is not an object"]
    return _schema_errors(document, schema_id, "") + _object_errors(spec, document, None, "")
