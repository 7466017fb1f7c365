"""One-shot markdown report of a complete reproduction run.

Stitches every experiment into a single human-readable document: the
campaign's tables, the longitudinal figures' summaries, the fingerprint
analysis, staleness, POODLE exposure, and the paper-vs-measured
headline comparison.  Used by ``iotls report``.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from ..core.audit import CampaignResults
from ..devices.catalog import device_by_name
from ..fingerprint import build_reference_database, build_shared_graph, collect_device_fingerprints
from ..roothistory.universe import RootStoreUniverse
from ..testbed.infrastructure import Testbed
from .poodle import assess_poodle_exposure
from .staleness import distrusted_trusted_by, staleness_by_device
from .streaming import TraceAnalysis

__all__ = ["generate_report", "write_report"]


def _md_table(headers: list[str], rows: list[tuple]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def generate_report(
    testbed: Testbed,
    results: CampaignResults,
    analysis: TraceAnalysis,
    *,
    universe: RootStoreUniverse | None = None,
) -> str:
    """Render the full run (campaign plus analysed trace) as markdown."""
    universe = universe or testbed.universe
    sections: list[str] = ["# IoTLS reproduction report", ""]

    # ------------------------------------------------------------------
    sections.append("## Headline findings (paper §1)")
    sections.append(
        _md_table(
            ["Finding", "Paper", "This run"],
            [
                ("Devices vulnerable to interception", 11, results.vulnerable_device_count),
                ("Vulnerable devices leaking sensitive data", 7, results.sensitive_leak_count),
                ("Devices downgrading on failure", 7, results.downgrading_device_count),
                ("Devices establishing old TLS versions", "18-19", results.old_version_device_count),
                ("Probe-amenable devices", 8, len(results.amenable_probe_reports)),
            ],
        )
    )

    # ------------------------------------------------------------------
    sections.append("\n## Interception (Table 7)")
    sections.append(
        _md_table(
            ["Device", "NoValidation", "InvalidBC", "WrongHostname", "Vuln/Total", "Sensitive"],
            [
                (*report.table7_row(), "yes" if report.leaks_sensitive_data else "no")
                for report in results.interception
                if report.vulnerable
            ],
        )
    )

    sections.append("\n## Downgrades (Table 5) and POODLE exposure")
    rows = []
    for report in results.downgrade:
        if not report.downgrades:
            continue
        exposure = assess_poodle_exposure(device_by_name(report.device), report)
        rows.append(
            (
                report.device,
                report.behavior,
                f"{report.downgraded_destinations}/{report.tested_destinations}",
                f"{exposure.expected_oracle_requests:,} req" if exposure.at_risk else "-",
            )
        )
    sections.append(_md_table(["Device", "Behavior", "Ratio", "POODLE oracle budget"], rows))

    sections.append("\n## Root stores (Table 9)")
    sections.append(
        _md_table(
            ["Device", "Common certs", "Deprecated certs", "Distrusted CAs trusted"],
            [
                (
                    *report.table9_row(),
                    ", ".join(
                        distrusted_trusted_by([report], universe).get(report.device, [])
                    )
                    or "-",
                )
                for report in results.amenable_probe_reports
            ],
        )
    )

    staleness = staleness_by_device(results.probes, universe)
    oldest = min((s.oldest_removal_year for s in staleness if s.oldest_removal_year), default=None)
    sections.append(
        f"\nOldest retained deprecated root removed in **{oldest}** "
        f"(paper: 2013, on the LG TV)."
    )

    # ------------------------------------------------------------------
    sections.append("\n## Longitudinal study (Figures 1-3)")
    versions, insecure, strong = analysis.versions, analysis.insecure, analysis.strong
    dataset = analysis.dataset
    sections.append(
        f"- capture: **{analysis.connections:,} connections** over "
        f"{dataset.months_covered} months, {dataset.device_count} devices\n"
        f"- Figure 1: {len(versions.shown_devices())} devices shown, "
        f"{len(versions.hidden_devices())} TLS 1.2-exclusive (paper: 12 / 28)\n"
        f"- Figure 2: {len(insecure.shown_devices())} insecure-advertisers "
        f"(paper: 34), clean: {', '.join(insecure.hidden_devices())}\n"
        f"- Figure 3: {len(strong.hidden_devices())} always-forward-secret devices "
        f"(paper: 18)"
    )
    sections.append("\nAdoption / deprecation events detected:")
    for event in analysis.adoption_events:
        sections.append(f"- {event.describe()}")

    summary = analysis.revocation
    sections.append("\n## Revocation (Table 8)")
    sections.append(
        _md_table(
            ["Method", "Devices"],
            [(method, devices) for method, devices in summary.table8_rows()],
        )
    )
    sections.append(
        f"\nDevices never checking revocation: **{len(summary.non_checking_devices)}** (paper: 28)."
    )

    sections.append("\n## Comparison with prior work (§5.1)")
    sections.append(analysis.comparison.summary())

    # ------------------------------------------------------------------
    sections.append("\n## Fingerprints (Figure 5)")
    collected = collect_device_fingerprints(testbed)
    graph = build_shared_graph(collected, build_reference_database())
    multi = sum(1 for c in collected if c.multiple_instances)
    sections.append(
        f"- {len(collected) - multi} single-instance / {multi} multi-instance devices "
        f"(paper: 18 / 14)\n"
        f"- {len(graph.sharing_devices())} devices share a fingerprint (paper: 19)\n"
        f"- stock-OpenSSL matches: "
        f"{', '.join(sorted(graph.devices_sharing_with_application('openssl')))}"
    )
    for cluster in sorted(graph.device_clusters(), key=len, reverse=True):
        sections.append(f"- cluster: {', '.join(sorted(cluster))}")

    # ------------------------------------------------------------------
    if results.passthrough:
        extra = statistics.mean(outcome.extra_fraction for outcome in results.passthrough)
        failures = sum(outcome.new_validation_failures for outcome in results.passthrough)
        sections.append("\n## TrafficPassthrough verification (§4.2)")
        sections.append(
            f"Average additional destinations: **{extra:.1%}** (paper: ~20.4%); "
            f"new validation failures: **{failures}** (paper: 0)."
        )

    return "\n".join(sections) + "\n"


def write_report(
    testbed: Testbed,
    results: CampaignResults,
    analysis: TraceAnalysis,
    path: str | Path,
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(generate_report(testbed, results, analysis))
    return path
