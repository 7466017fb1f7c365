"""Adoption/deprecation event detection over the longitudinal capture.

§5.1 dates several behaviour changes (Apple TV and Google Home Mini
moving to TLS 1.3 in 5/2019; Blink Hub to TLS 1.2 in 7/2018; Blink Hub
and SmartThings dropping weak ciphers in 5/2019 and 3/2020; five devices
adopting forward secrecy).  This module re-detects those events from the
capture's heatmaps alone: a change event is the first month where a
device's fraction series crosses a threshold and stays across it.  The
analysis pipeline runs it once per trace, as
``analyze_capture(capture).adoption_events``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..tls.versions import VersionBand
from .heatmaps import DeviceMonthSeries, FractionHeatmap, VersionHeatmap

__all__ = [
    "AdoptionKind",
    "AdoptionEvent",
    "detect_adoption_events_from_heatmaps",
    "month_label",
]

_CROSS = 0.5  # a change of majority behaviour
# Hysteresis: monthly connection mixes jitter, so an adoption event must
# move from clearly-low to clearly-high (or vice versa), not just wobble
# around the majority line.
_LOW = 0.35
_HIGH = 0.65


def month_label(month: int) -> str:
    """Render a study month index as the paper's M/YYYY style."""
    return f"{month % 12 + 1}/{2018 + month // 12}"


class AdoptionKind(Enum):
    TLS13_ADOPTED = "advertises TLS 1.3"
    TLS12_ADOPTED = "advertises TLS 1.2 (was older)"
    WEAK_CIPHERS_DROPPED = "stops advertising insecure ciphersuites"
    WEAK_CIPHERS_ADDED = "increases insecure-ciphersuite advertisement"
    FORWARD_SECRECY_ADOPTED = "establishes forward-secret connections"


@dataclass(frozen=True)
class AdoptionEvent:
    device: str
    kind: AdoptionKind
    month: int

    def describe(self) -> str:
        return f"{self.device}: {self.kind.value} from {month_label(self.month)}"


def _sustained_crossing(series: DeviceMonthSeries, *, rising: bool) -> int | None:
    """First month the series moves decisively across 0.5 for good.

    The crossing must (a) start from the clearly-opposite side
    (hysteresis against month-to-month volume jitter), (b) reach the
    clearly-new side, and (c) never return across the majority line.
    """
    values = series.values
    was_opposite = False
    crossing = None
    for month, value in enumerate(values):
        if value is None:
            continue
        if rising:
            if value <= _LOW:
                was_opposite = True
                crossing = None
            elif value >= _HIGH and was_opposite and crossing is None:
                crossing = month
            elif value < _CROSS:
                crossing = None
        else:
            if value >= 1 - _LOW:
                was_opposite = True
                crossing = None
            elif value <= 1 - _HIGH and was_opposite and crossing is None:
                crossing = month
            elif value > _CROSS:
                crossing = None
    return crossing


def detect_adoption_events_from_heatmaps(
    versions: VersionHeatmap,
    insecure: FractionHeatmap,
    strong: FractionHeatmap,
) -> list[AdoptionEvent]:
    """All sustained majority-behaviour changes in the three heatmaps."""
    events: list[AdoptionEvent] = []

    for device, series in versions.advertised[VersionBand.TLS_1_3].items():
        month = _sustained_crossing(series, rising=True)
        if month is not None:
            events.append(AdoptionEvent(device, AdoptionKind.TLS13_ADOPTED, month))
    for device, series in versions.advertised[VersionBand.TLS_1_2].items():
        month = _sustained_crossing(series, rising=True)
        if month is not None and not any(
            e.device == device and e.kind is AdoptionKind.TLS13_ADOPTED for e in events
        ):
            events.append(AdoptionEvent(device, AdoptionKind.TLS12_ADOPTED, month))

    for device, series in insecure.series.items():
        month = _sustained_crossing(series, rising=False)
        if month is not None:
            events.append(AdoptionEvent(device, AdoptionKind.WEAK_CIPHERS_DROPPED, month))
        month_up = _sustained_crossing(series, rising=True)
        if month_up is not None:
            events.append(AdoptionEvent(device, AdoptionKind.WEAK_CIPHERS_ADDED, month_up))

    for device, series in strong.series.items():
        month = _sustained_crossing(series, rising=True)
        if month is not None:
            events.append(AdoptionEvent(device, AdoptionKind.FORWARD_SECRECY_ADOPTED, month))

    return sorted(events, key=lambda e: (e.month, e.device))
