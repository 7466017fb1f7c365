"""Validate a file against one of the repo's published contracts.

The contracts live on their entries in :mod:`repro.telemetry.schemas`
and are enforced by its one checker, :func:`check_contract`; this tool
holds no format rules.  ``--schema`` accepts the id of any entry that
carries a contract; the default is auto-detection from the ``schema``
tag of the file's first parseable record.

CI runs this over artifacts its smoke steps produce so the contracts
external consumers depend on are pinned, not aspirational.

Exit codes: 0 = valid, 1 = contract violation, 2 = usage error.

Usage::

    python tools/validate_streams.py PATH [--schema SCHEMA]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

try:
    from repro.telemetry.schemas import all_schemas, check_contract
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.telemetry.schemas import all_schemas, check_contract

CHECKED = sorted(schema.id for schema in all_schemas() if schema.contract is not None)


def detect_schema(path: Path) -> str | None:
    """Guess which contract a file claims, from its first parseable record."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    stripped = text.lstrip()
    if not stripped:
        return None
    try:
        record = json.loads(stripped.splitlines()[0])
    except json.JSONDecodeError:
        # Not line-delimited: try the whole file as one JSON document.
        try:
            record = json.loads(text)
        except json.JSONDecodeError:
            return None
    if not isinstance(record, dict):
        return None
    schema = record.get("schema")
    return schema if schema in CHECKED else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="stream/report file to validate")
    parser.add_argument(
        "--schema",
        choices=CHECKED,
        help="contract to validate against (default: auto-detect from content)",
    )
    args = parser.parse_args()
    path = Path(args.path)
    if not path.exists():
        print(f"error: no such file: {path}", file=sys.stderr)
        return 2
    schema = args.schema or detect_schema(path)
    if schema is None:
        print(
            f"error: cannot detect a known schema in {path}; pass --schema",
            file=sys.stderr,
        )
        return 2
    errors = check_contract(path, schema)
    if errors:
        for error in errors:
            print(f"INVALID: {error}", file=sys.stderr)
        return 1
    print(f"{path}: valid {schema}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
