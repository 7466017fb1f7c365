"""Paper-drift auditing: does a run still reproduce Tables 1-9 / Figures 1-5?

The reproduction's value is its claims, so ``iotls check`` re-measures
every claim and diffs the result against a ground-truth expectations
file (``expected/paper.json``), cell by cell:

* each **cell** names one published value (``table7.vulnerable_devices``,
  ``figure1.shown_devices``, ...) with the paper's figure where the repo
  records it, the reproduction's calibrated ``expected`` value, and a
  ``tolerance`` (non-zero only for fractions, which wobble with scale
  and seed -- counts must match exactly),
* :func:`measure_all` regenerates everything (passive trace, active
  campaign, fingerprints, library survey, catalog) and returns the
  measured values; :func:`measure_analysis` covers just the
  capture-derived cells of an analysed trace, and
  :func:`measure_capture` those of a materialised capture (an exported
  ``iotls trace --json`` artifact, for ``iotls check --artifact``),
* :func:`audit` produces a :class:`DriftReport`: per-cell
  match/drift/skipped statuses, a renderable table, a JSON document,
  and one boolean -- :attr:`DriftReport.ok` -- that CI gates on.

Expectations are calibrated at ``--scale 1`` (the check default); every
count cell is scale-invariant, and fraction cells carry the tolerance
that absorbs scale/seed wobble.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..testbed.capture import GatewayCapture

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel import WarmWorkerPool

__all__ = [
    "DriftReport",
    "CellResult",
    "Expectation",
    "EXPECTATIONS_PATH",
    "audit",
    "audit_artifact",
    "audit_capture",
    "audit_fresh_run",
    "load_expectations",
    "measure_all",
    "measure_analysis",
    "measure_capture",
]

from ..telemetry.schemas import (  # registered in repro.telemetry.schemas
    DRIFT_REPORT_SCHEMA,
    EXPECTATIONS_SCHEMA,
)

#: The packaged ground truth, seeded from the paper's Tables 1-9 and
#: Figures 1-5 (paper values as recorded in EXPERIMENTS.md, expected
#: values calibrated against the reproduction at scale 1).
EXPECTATIONS_PATH = Path(__file__).parent / "expected" / "paper.json"


@dataclass(frozen=True)
class Expectation:
    """One checkable cell of a paper table or figure."""

    id: str
    section: str
    description: str
    kind: str  # "count" | "fraction" | "year"
    expected: float | int
    tolerance: float = 0.0
    paper: float | int | str | None = None

    def matches(self, actual: float | int) -> bool:
        return abs(actual - self.expected) <= self.tolerance + 1e-12


@dataclass(frozen=True)
class CellResult:
    """The audit outcome for one cell."""

    expectation: Expectation
    actual: float | int | None
    status: str  # "match" | "drift" | "skipped"

    @property
    def delta(self) -> float | None:
        if self.actual is None:
            return None
        return self.actual - self.expectation.expected

    def to_dict(self) -> dict[str, Any]:
        exp = self.expectation
        return {
            "id": exp.id,
            "section": exp.section,
            "description": exp.description,
            "kind": exp.kind,
            "paper": exp.paper,
            "expected": exp.expected,
            "tolerance": exp.tolerance,
            "actual": self.actual,
            "delta": self.delta,
            "status": self.status,
        }


class DriftReport:
    """Per-cell drift results plus the one bit CI cares about."""

    def __init__(self, cells: list[CellResult]) -> None:
        self.cells = cells

    @property
    def drifted(self) -> list[CellResult]:
        return [cell for cell in self.cells if cell.status == "drift"]

    @property
    def matched(self) -> list[CellResult]:
        return [cell for cell in self.cells if cell.status == "match"]

    @property
    def skipped(self) -> list[CellResult]:
        return [cell for cell in self.cells if cell.status == "skipped"]

    @property
    def ok(self) -> bool:
        """True when no audited cell drifted (skipped cells don't fail)."""
        return not self.drifted

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": DRIFT_REPORT_SCHEMA,
            "ok": self.ok,
            "summary": {
                "cells": len(self.cells),
                "matched": len(self.matched),
                "drifted": len(self.drifted),
                "skipped": len(self.skipped),
            },
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def render(self) -> str:
        """The per-cell table ``iotls check`` prints."""
        headers = ("cell", "paper", "expected", "actual", "status")
        rows = []
        for cell in self.cells:
            exp = cell.expectation
            tol = f" ±{exp.tolerance:g}" if exp.tolerance else ""
            rows.append(
                (
                    exp.id,
                    "-" if exp.paper is None else str(exp.paper),
                    f"{exp.expected:g}{tol}",
                    "-" if cell.actual is None else f"{cell.actual:g}",
                    cell.status.upper() if cell.status == "drift" else cell.status,
                )
            )
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
            for i in range(len(headers))
        ]

        def fmt(row: tuple[str, ...]) -> str:
            return "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()

        lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
        lines.extend(fmt(row) for row in rows)
        lines.append("")
        lines.append(
            f"{len(self.matched)} matched, {len(self.drifted)} drifted, "
            f"{len(self.skipped)} skipped"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Expectations loading
# ----------------------------------------------------------------------
def load_expectations(path: str | Path | None = None) -> list[Expectation]:
    """Parse an expectations file (the packaged one by default)."""
    document = json.loads(Path(path or EXPECTATIONS_PATH).read_text())
    if document.get("schema") != EXPECTATIONS_SCHEMA:
        raise ValueError(
            f"unexpected expectations schema {document.get('schema')!r}; "
            f"wanted {EXPECTATIONS_SCHEMA}"
        )
    cells = [
        Expectation(
            id=entry["id"],
            section=entry["section"],
            description=entry.get("description", ""),
            kind=entry.get("kind", "count"),
            expected=entry["expected"],
            tolerance=entry.get("tolerance", 0.0),
            paper=entry.get("paper"),
        )
        for entry in document["cells"]
    ]
    seen: set[str] = set()
    for cell in cells:
        if cell.id in seen:
            raise ValueError(f"duplicate expectation id {cell.id!r}")
        seen.add(cell.id)
    return cells


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def measure_analysis(analysis) -> dict[str, float | int]:
    """The capture-derived cells, from a finalized
    :class:`~repro.analysis.streaming.TraceAnalysis`."""
    return {
        "trace.devices": analysis.dataset.device_count,
        "figure1.shown_devices": len(analysis.versions.shown_devices()),
        "figure1.tls12_exclusive_devices": len(analysis.versions.hidden_devices()),
        "figure2.insecure_advertisers": len(analysis.insecure.shown_devices()),
        "figure2.clean_devices": len(analysis.insecure.hidden_devices()),
        "figure3.always_forward_secret_devices": len(analysis.strong.hidden_devices()),
        "adoption.events": len(analysis.adoption_events),
        "table8.crl_devices": len(analysis.revocation.crl_devices),
        "table8.ocsp_devices": len(analysis.revocation.ocsp_devices),
        "table8.stapling_devices": len(analysis.revocation.stapling_devices),
        "table8.never_checking_devices": len(analysis.revocation.non_checking_devices),
        "comparison.tls13_fraction": analysis.comparison.tls13_fraction,
        "comparison.rc4_fraction": analysis.comparison.rc4_fraction,
    }


def measure_capture(capture: GatewayCapture) -> dict[str, float | int]:
    """The capture-derived cells (Figures 1-3, Table 8, §5.1, adoption)."""
    from .streaming import analyze_capture

    return measure_analysis(analyze_capture(capture))


def _measure_campaign(results, universe) -> dict[str, float | int]:
    """Cells from the active campaign (Tables 5-7, 9, Figure 4, §4.2)."""
    import statistics

    from ..core.prober import _percent_half_up
    from .staleness import staleness_by_device

    measured: dict[str, float | int] = {
        "table5.downgrading_devices": results.downgrading_device_count,
        "table6.old_version_devices": results.old_version_device_count,
        "table7.vulnerable_devices": results.vulnerable_device_count,
        "table7.sensitive_leaks": results.sensitive_leak_count,
        "campaign.probe_eligible_devices": len(results.probe_eligible),
        "table9.amenable_devices": len(results.amenable_probe_reports),
    }
    for report in results.amenable_probe_reports:
        slug = _slug(report.device)
        cp, cc = report.common_tally
        dp, dc = report.deprecated_tally
        measured[f"table9.{slug}.common_pct"] = _percent_half_up(cp, cc) if cc else 0
        measured[f"table9.{slug}.deprecated_pct"] = _percent_half_up(dp, dc) if dc else 0
    staleness = staleness_by_device(results.probes, universe)
    oldest = min(
        (entry.oldest_removal_year for entry in staleness if entry.oldest_removal_year),
        default=0,
    )
    measured["figure4.oldest_removal_year"] = oldest
    if results.passthrough:
        measured["passthrough.extra_fraction"] = statistics.mean(
            outcome.extra_fraction for outcome in results.passthrough
        )
        measured["passthrough.new_validation_failures"] = sum(
            outcome.new_validation_failures for outcome in results.passthrough
        )
    return measured


def _measure_static(testbed) -> dict[str, float | int]:
    """Cells that need no run at all (Tables 1, 3, 4, Figure 5)."""
    from ..core import survey_all_libraries
    from ..devices.catalog import build_catalog
    from ..fingerprint import (
        build_reference_database,
        build_shared_graph,
        collect_device_fingerprints,
    )
    from ..roothistory.platforms import PLATFORM_SPECS

    catalog = build_catalog()
    survey = survey_all_libraries()
    collected = collect_device_fingerprints(testbed)
    graph = build_shared_graph(collected, build_reference_database())
    multi = sum(1 for entry in collected if entry.multiple_instances)
    return {
        "table1.devices": len(catalog),
        "table1.active_devices": sum(1 for device in catalog if device.active),
        "table3.platforms": len(PLATFORM_SPECS),
        "table4.libraries": len(survey),
        "table4.amenable_libraries": sum(1 for row in survey if row.amenable),
        "figure5.fingerprinted_devices": len(collected),
        "figure5.single_instance_devices": len(collected) - multi,
        "figure5.multi_instance_devices": multi,
        "figure5.sharing_devices": len(graph.sharing_devices()),
        "figure5.clusters": len(graph.device_clusters()),
        "figure5.openssl_matches": len(graph.devices_sharing_with_application("openssl")),
    }


def measure_all(
    *, scale: int = 1, seed: str = "iotls-passive", pool: WarmWorkerPool | None = None
) -> dict[str, float | int]:
    """Regenerate everything and measure every checkable cell."""
    from ..core import ActiveExperimentCampaign
    from ..longitudinal import PassiveTraceGenerator
    from ..testbed import CaptureTee, Testbed
    from .streaming import TraceAnalysisPipeline

    testbed = Testbed()
    pipeline = TraceAnalysisPipeline()
    PassiveTraceGenerator(testbed, scale=scale, seed=seed).stream_into(
        CaptureTee(pipeline), pool=pool
    )
    results = ActiveExperimentCampaign(testbed).run(pool=pool)
    measured = measure_analysis(pipeline.finalize())
    measured.update(_measure_campaign(results, testbed.universe))
    measured.update(_measure_static(testbed))
    return measured


# ----------------------------------------------------------------------
# Auditing
# ----------------------------------------------------------------------
def audit(
    expectations: list[Expectation], measured: dict[str, float | int]
) -> DriftReport:
    """Diff measured values against expectations, cell by cell.

    Cells with no measured value (e.g. campaign cells when auditing a
    trace artifact) are *skipped*, not failed -- absence of evidence is
    reported, never counted as drift.
    """
    cells = []
    for expectation in expectations:
        actual = measured.get(expectation.id)
        if actual is None:
            cells.append(CellResult(expectation, None, "skipped"))
        elif expectation.matches(actual):
            cells.append(CellResult(expectation, actual, "match"))
        else:
            cells.append(CellResult(expectation, actual, "drift"))
    return DriftReport(cells)


def audit_fresh_run(
    *,
    scale: int = 1,
    seed: str = "iotls-passive",
    pool: WarmWorkerPool | None = None,
    expectations_path: str | Path | None = None,
) -> DriftReport:
    """Run the full pipeline and audit it (the ``iotls check`` default)."""
    return audit(
        load_expectations(expectations_path),
        measure_all(scale=scale, seed=seed, pool=pool),
    )


def audit_capture(
    capture: GatewayCapture, *, expectations_path: str | Path | None = None
) -> DriftReport:
    """Audit an existing capture (``iotls check --artifact``)."""
    return audit(load_expectations(expectations_path), measure_capture(capture))


def audit_artifact(
    path: str | Path, *, expectations_path: str | Path | None = None
) -> DriftReport:
    """Audit an exported trace artifact (``iotls check --artifact``).

    ``.jsonl`` artifacts (``iotls trace --stream-out``) are folded
    line-by-line through the streaming analysis pipeline without ever
    materialising the capture; anything else is read as a legacy
    ``iotls trace --json`` document.
    """
    path = Path(path)
    if path.suffix == ".jsonl":
        from .export import fold_stream
        from .streaming import TraceAnalysisPipeline

        pipeline = TraceAnalysisPipeline()
        fold_stream(path, pipeline)
        return audit(
            load_expectations(expectations_path),
            measure_analysis(pipeline.finalize()),
        )
    from .export import capture_from_records

    document = json.loads(path.read_text())
    return audit_capture(
        capture_from_records(document), expectations_path=expectations_path
    )
