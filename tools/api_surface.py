"""Snapshot and check the library's public API surface.

The public surface is every package's ``__all__`` plus, for the
``repro.api`` run facade specifically, the full call signature of each
exported callable (parameter names, kinds, and defaults -- the things a
caller's code depends on).  ``--update`` writes the committed baseline
(``tools/api_surface.json``); ``--check`` (the default) re-derives the
surface and fails with a name-level diff when it no longer matches, so
accidental API breaks surface in CI instead of in consumers.

Usage::

    PYTHONPATH=src python tools/api_surface.py --check   # CI gate
    PYTHONPATH=src python tools/api_surface.py --update  # after a deliberate change
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
from pathlib import Path

try:
    from repro.telemetry.schemas import API_SURFACE_SCHEMA
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.telemetry.schemas import API_SURFACE_SCHEMA

BASELINE = Path(__file__).resolve().parent / "api_surface.json"

#: Packages whose ``__all__`` constitutes the public surface.
MODULES = [
    "repro.api",
    "repro.analysis",
    "repro.cli",
    "repro.core",
    "repro.devices",
    "repro.fingerprint",
    "repro.longitudinal",
    "repro.mitm",
    "repro.parallel",
    "repro.pki",
    "repro.roothistory",
    "repro.serve",
    "repro.telemetry",
    "repro.testbed",
    "repro.tls",
]

#: The facade's signatures are part of the contract, not just its names.
SIGNATURE_MODULE = "repro.api"


def _signature(obj) -> list[dict[str, str]] | None:
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return None
    return [
        {
            "name": parameter.name,
            "kind": parameter.kind.name,
            "default": (
                "<required>"
                if parameter.default is inspect.Parameter.empty
                else repr(parameter.default)
            ),
        }
        for parameter in signature.parameters.values()
    ]


def build_surface() -> dict:
    surface: dict = {"schema": API_SURFACE_SCHEMA, "modules": {}, "signatures": {}}
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        surface["modules"][module_name] = sorted(module.__all__)
    facade = importlib.import_module(SIGNATURE_MODULE)
    for name in sorted(facade.__all__):
        signature = _signature(getattr(facade, name))
        if signature is not None:
            surface["signatures"][f"{SIGNATURE_MODULE}.{name}"] = signature
    return surface


def _diff(baseline: dict, current: dict) -> list[str]:
    lines = []
    base_modules = baseline.get("modules", {})
    for module_name in MODULES:
        old = set(base_modules.get(module_name, []))
        new = set(current["modules"][module_name])
        for name in sorted(old - new):
            lines.append(f"{module_name}: removed {name!r}")
        for name in sorted(new - old):
            lines.append(f"{module_name}: added {name!r}")
    base_signatures = baseline.get("signatures", {})
    for qualified, signature in current["signatures"].items():
        old = base_signatures.get(qualified)
        if old is not None and old != signature:
            lines.append(f"{qualified}: signature changed")
    for qualified in sorted(set(base_signatures) - set(current["signatures"])):
        lines.append(f"{qualified}: signature no longer derivable")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true", help="diff against the baseline (default)"
    )
    mode.add_argument(
        "--update", action="store_true", help="rewrite the committed baseline"
    )
    args = parser.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    current = build_surface()

    if args.update:
        BASELINE.write_text(json.dumps(current, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {BASELINE}")
        return 0

    if not BASELINE.exists():
        print(f"missing baseline {BASELINE}; run with --update first", file=sys.stderr)
        return 1
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    lines = _diff(baseline, current)
    if lines:
        print("public API surface drifted from tools/api_surface.json:", file=sys.stderr)
        for line in lines:
            print(f"  {line}", file=sys.stderr)
        print(
            "intentional change? re-run: PYTHONPATH=src python tools/api_surface.py --update",
            file=sys.stderr,
        )
        return 1
    total = sum(len(names) for names in current["modules"].values())
    print(f"api surface ok: {total} exported names across {len(MODULES)} modules")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
