#!/usr/bin/env python3
"""The two-year longitudinal study: passive capture + Figures 1-3.

Generates the 27-month passive trace (January 2018 - March 2020),
renders ASCII versions of the paper's three heatmap figures, lists every
detected adoption/deprecation event, and prints the Table 8 revocation
summary plus the prior-work comparison.

Run:  python examples/longitudinal_study.py [scale]
"""

from __future__ import annotations

import sys

from repro.analysis import analyze_capture, render_table
from repro.longitudinal import PassiveTraceGenerator
from repro.tls.versions import VersionBand


def _cell(value: float | None) -> str:
    if value is None:
        return "."
    if value >= 0.75:
        return "#"
    if value >= 0.25:
        return "+"
    if value > 0:
        return "-"
    return " "


def _render_series(series) -> str:
    return "".join(_cell(value) for value in series.values)


def main() -> None:
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    print(f"Generating the 27-month passive trace (scale={scale})...")
    capture = PassiveTraceGenerator(scale=scale).generate()
    analysis = analyze_capture(capture)
    print(f"captured {analysis.connections:,} connections "
          f"from {analysis.dataset.device_count} devices\n")

    versions = analysis.versions
    print(f"Figure 1 -- devices not using TLS 1.2 exclusively "
          f"({len(versions.shown_devices())} shown, {len(versions.hidden_devices())} hidden):")
    for device in versions.shown_devices():
        advertised_old = versions.advertised[VersionBand.OLDER][device]
        advertised_13 = versions.advertised[VersionBand.TLS_1_3][device]
        print(f"  {device:18.18s} older|{_render_series(advertised_old)}| "
              f"1.3|{_render_series(advertised_13)}|")

    insecure = analysis.insecure
    print(f"\nFigure 2 -- insecure-suite advertisers "
          f"({len(insecure.shown_devices())} shown; clean: {', '.join(insecure.hidden_devices())})")

    strong = analysis.strong
    print(f"\nFigure 3 -- forward-secrecy establishment "
          f"({len(strong.hidden_devices())} always-strong devices hidden)")

    print("\nDetected adoption/deprecation events:")
    for event in analysis.adoption_events:
        print(f"  {event.describe()}")

    print("\nTable 8 -- revocation checking:")
    summary = analysis.revocation
    print(render_table(["Method", "Devices (count)"], summary.table8_rows()))
    print(f"devices never checking revocation: {len(summary.non_checking_devices)}")

    print("\nPrior-work comparison (§5.1):")
    print(f"  {analysis.comparison.summary()}")


if __name__ == "__main__":
    main()
