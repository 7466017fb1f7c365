"""Longitudinal passive-trace generation and monthly analyses."""

from .adoption import (
    AdoptionEvent,
    AdoptionKind,
    detect_adoption_events_from_heatmaps,
    month_label,
)
from .generator import DEFAULT_SCALE, PassiveTraceGenerator
from .heatmaps import (
    DeviceMonthSeries,
    FractionHeatmap,
    FractionHeatmapAccumulator,
    FractionSeriesAccumulator,
    VersionHeatmap,
    VersionHeatmapAccumulator,
    insecure_advertised_accumulator,
    strong_established_accumulator,
)

__all__ = [
    "AdoptionEvent",
    "AdoptionKind",
    "DEFAULT_SCALE",
    "DeviceMonthSeries",
    "FractionHeatmap",
    "FractionHeatmapAccumulator",
    "FractionSeriesAccumulator",
    "PassiveTraceGenerator",
    "VersionHeatmap",
    "VersionHeatmapAccumulator",
    "detect_adoption_events_from_heatmaps",
    "insecure_advertised_accumulator",
    "month_label",
    "strong_established_accumulator",
]
