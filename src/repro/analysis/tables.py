"""Static-table renderers (Tables 1 and 3) and generic table formatting."""

from __future__ import annotations

from ..devices.catalog import build_catalog
from ..devices.profile import DeviceCategory
from ..roothistory.platforms import PLATFORM_SPECS
from ..roothistory.universe import RootStoreUniverse

__all__ = ["render_table", "table1_rows", "table3_rows"]


def render_table(headers: list[str], rows: list[tuple]) -> str:
    """Plain-text table with aligned columns (CLI and example output)."""
    table = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(header) for header in headers]
    for row in table:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        " | ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "-+-".join("-" * width for width in widths),
    ]
    for row in table:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def table1_rows() -> list[tuple[str, str, str]]:
    """(category, device, passive-only marker) rows of the catalog."""
    rows = []
    for category in DeviceCategory:
        devices = [d for d in build_catalog() if d.category is category]
        for device in devices:
            marker = "" if device.active else "*"
            rows.append((f"{category.value} (n = {len(devices)})", device.name, marker))
    return rows


def table3_rows(universe: RootStoreUniverse) -> list[tuple[str, int, int, int]]:
    """(platform, versions, earliest year, latest store size) per Table 3."""
    rows = []
    for platform, version_count, earliest, _latest in PLATFORM_SPECS:
        history = universe.history(platform)
        rows.append(
            (platform, version_count, int(earliest), len(history.latest))
        )
    return rows
