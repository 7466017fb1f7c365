"""Dataset-level statistics (§4.1's corpus description).

The study gathered ≈17M TLS connections (per-device average ≈422K,
median ≈138K) over 27 months, with every device active for at least 6
months and 32 devices for more than 12.  This module computes the same
statistics over a generated trace (``analyze_capture(capture).dataset``),
plus the scale factor needed to match the paper's absolute volume.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from ..testbed.capture import TrafficRecord

__all__ = [
    "DatasetStatistics",
    "DatasetStatisticsAccumulator",
    "PAPER_TOTAL_CONNECTIONS",
]

PAPER_TOTAL_CONNECTIONS = 17_000_000
PAPER_MEAN_PER_DEVICE = 422_000
PAPER_MEDIAN_PER_DEVICE = 138_000


@dataclass(frozen=True)
class DatasetStatistics:
    total_connections: int
    device_count: int
    months_covered: int
    per_device_mean: float
    per_device_median: float
    min_active_months: int
    devices_over_12_months: int

    @property
    def scale_to_paper(self) -> float:
        """Multiply the generator's scale by this to match ≈17M."""
        if not self.total_connections:
            return float("inf")
        return PAPER_TOTAL_CONNECTIONS / self.total_connections

    @property
    def mean_to_median_ratio(self) -> float:
        """The corpus's skew: the paper's ratio is ≈3.1 (422K/138K) --
        a few chatty devices dominate."""
        if not self.per_device_median:
            return float("inf")
        return self.per_device_mean / self.per_device_median

    def summary(self) -> str:
        return (
            f"{self.total_connections:,} connections from {self.device_count} devices "
            f"over {self.months_covered} months; per-device mean "
            f"{self.per_device_mean:,.0f} / median {self.per_device_median:,.0f} "
            f"(skew {self.mean_to_median_ratio:.1f}x; paper "
            f"{PAPER_MEAN_PER_DEVICE / PAPER_MEDIAN_PER_DEVICE:.1f}x)"
        )


class DatasetStatisticsAccumulator:
    """Incremental §4.1 corpus statistics (count-weighted tallies)."""

    def __init__(self) -> None:
        self._per_device: dict[str, int] = {}
        self._device_months: dict[str, set[int]] = {}
        self._months: set[int] = set()

    def add(self, record: TrafficRecord) -> None:
        self._per_device[record.device] = (
            self._per_device.get(record.device, 0) + record.count
        )
        self._device_months.setdefault(record.device, set()).add(record.month)
        self._months.add(record.month)

    def bulk_add(self, device: str, connections: int, months: set[int]) -> None:
        """Fold one device chunk: total connections plus months present."""
        self._per_device[device] = self._per_device.get(device, 0) + connections
        self._device_months.setdefault(device, set()).update(months)
        self._months.update(months)

    def finalize(self) -> DatasetStatistics:
        counts = sorted(self._per_device.values())
        month_counts = [len(months) for months in self._device_months.values()]
        return DatasetStatistics(
            total_connections=sum(counts),
            device_count=len(self._per_device),
            months_covered=len(self._months),
            per_device_mean=statistics.mean(counts) if counts else 0.0,
            per_device_median=statistics.median(counts) if counts else 0.0,
            min_active_months=min(month_counts) if month_counts else 0,
            devices_over_12_months=sum(1 for count in month_counts if count > 12),
        )

