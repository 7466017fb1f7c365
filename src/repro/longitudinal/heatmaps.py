"""Monthly heatmap matrices for Figures 1, 2 and 3.

Each figure is a (device x month) grid of connection fractions:

* Figure 1 -- for each device, *three* rows (TLS 1.3 / TLS 1.2 / older),
  separately for versions **advertised** in ClientHellos and versions
  **established** in ServerHellos,
* Figure 2 -- fraction of connections whose ClientHello advertises an
  insecure ciphersuite (DES / 3DES / RC4 / EXPORT); lower is better,
* Figure 3 -- fraction of established connections using a forward-secret
  (DHE / ECDHE / TLS 1.3) suite; higher is better.

Cells for months where a device produced no traffic are ``None`` (the
paper's gray cells).  The "not shown" filters reproduce the figures'
device-selection rules (e.g. the 28 devices that used TLS 1.2 for the
vast majority of advertised *and* established connections are omitted
from Figure 1).

Every heatmap is built by an *incremental accumulator*
(:class:`FractionSeriesAccumulator` and the figure-specific wrappers):
state is O(devices x months) integer tallies, fed one record at a time
(``add``) or one device chunk at a time (``bulk_tally``/``add_batch``)
in any order.  :class:`~repro.analysis.streaming.TraceAnalysisPipeline`
drives them; ``analyze_capture(capture).versions`` / ``.insecure`` /
``.strong`` are the three figures of a materialised capture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..devices.profile import STUDY_MONTHS
from ..testbed.capture import TrafficRecord
from ..tls.ciphersuites import REGISTRY
from ..tls.versions import VersionBand

__all__ = [
    "DeviceMonthSeries",
    "VersionHeatmap",
    "FractionHeatmap",
    "FractionSeriesAccumulator",
    "VersionHeatmapAccumulator",
    "FractionHeatmapAccumulator",
    "insecure_advertised_accumulator",
    "strong_established_accumulator",
]

#: Threshold for "vast majority" when filtering devices out of a figure.
_VAST_MAJORITY = 0.95

#: Exact residual fraction at which a device becomes "shown": computing
#: it as ``1 - _VAST_MAJORITY`` leaves a float residue
#: (0.05000000000000004) that silently excludes exact-boundary devices.
_SHOWN_RESIDUAL = 0.05


def _crosses(value: float, threshold: float, *, from_below: bool = True) -> bool:
    """The shared, *inclusive* shown-side comparison for figure filters.

    Every figure hides devices that stay strictly on the "good" side of
    its threshold; a device sitting exactly on the threshold is shown.
    """
    return value >= threshold if from_below else value <= threshold


@dataclass
class DeviceMonthSeries:
    """One device's monthly fraction series (None = no traffic)."""

    device: str
    values: list[float | None] = field(default_factory=lambda: [None] * STUDY_MONTHS)

    def active_values(self) -> list[float]:
        return [v for v in self.values if v is not None]

    def max_fraction(self) -> float:
        active = self.active_values()
        return max(active) if active else 0.0

    def first_month_reaching(self, threshold: float) -> int | None:
        """First month where the fraction reaches ``threshold`` (event
        detection for the adoption analyses)."""
        for month, value in enumerate(self.values):
            if value is not None and value >= threshold:
                return month
        return None

    def last_month_reaching(self, threshold: float) -> int | None:
        last = None
        for month, value in enumerate(self.values):
            if value is not None and value >= threshold:
                last = month
        return last


class FractionSeriesAccumulator:
    """Incremental per-device monthly fraction of records satisfying
    ``predicate``.

    Order-independent: tallies are count-weighted integer sums per
    (device, month), so feeding records in any order yields the same
    series.  A device that produced traffic but never passed the
    ``denominator_predicate`` still appears, with an all-``None``
    series -- exactly what a grouped pass over a materialised capture
    produces.
    """

    def __init__(self, predicate, *, denominator_predicate=None) -> None:
        self._predicate = predicate
        self._denominator = denominator_predicate
        self._totals: dict[tuple[str, int], int] = {}
        self._hits: dict[tuple[str, int], int] = {}
        self._device_names: set[str] = set()

    def add(self, record: TrafficRecord) -> None:
        self._device_names.add(record.device)
        if self._denominator is not None and not self._denominator(record):
            return
        key = (record.device, record.month)
        self._totals[key] = self._totals.get(key, 0) + record.count
        if self._predicate(record):
            self._hits[key] = self._hits.get(key, 0) + record.count

    def bulk_tally(
        self, device: str, totals: list[int], hits: list[int]
    ) -> None:
        """Fold one device's per-month weights in one call.

        ``totals`` and ``hits`` are length-``STUDY_MONTHS`` lists of
        count-weighted sums, already filtered through this
        accumulator's denominator and predicate by the caller (the
        chunk fold).  Months with zero total leave their cell
        untouched, exactly like a run of :meth:`add` calls that never
        passed the denominator.
        """
        self._device_names.add(device)
        t, h = self._totals, self._hits
        for month, total in enumerate(totals):
            if total:
                key = (device, month)
                t[key] = t.get(key, 0) + total
                hit = hits[month]
                if hit:
                    h[key] = h.get(key, 0) + hit

    @property
    def devices(self) -> list[str]:
        return sorted(self._device_names)

    def series(self) -> dict[str, DeviceMonthSeries]:
        series = {
            device: DeviceMonthSeries(device=device) for device in self._device_names
        }
        for (device, month), total in self._totals.items():
            series[device].values[month] = self._hits.get((device, month), 0) / total
        return series


# ---------------------------------------------------------------------------
# Figure 1
# ---------------------------------------------------------------------------

@dataclass
class VersionHeatmap:
    """Figure 1's data: per-band advertised and established series."""

    advertised: dict[VersionBand, dict[str, DeviceMonthSeries]]
    established: dict[VersionBand, dict[str, DeviceMonthSeries]]
    devices: list[str]

    def shown_devices(self) -> list[str]:
        """Devices that did NOT use TLS 1.2 (near-)exclusively."""
        shown = []
        for device in self.devices:
            non12 = 0.0
            for band in (VersionBand.TLS_1_3, VersionBand.OLDER):
                for table in (self.advertised, self.established):
                    series = table[band].get(device)
                    if series is not None:
                        non12 = max(non12, series.max_fraction())
            if _crosses(non12, _SHOWN_RESIDUAL):
                shown.append(device)
        return shown

    def hidden_devices(self) -> list[str]:
        """The paper's "28 devices ... not shown in this figure"."""
        shown = set(self.shown_devices())
        return [device for device in self.devices if device not in shown]


def _is_established(record: TrafficRecord) -> bool:
    return record.established


class VersionHeatmapAccumulator:
    """Single-pass incremental builder for Figure 1's version heatmap."""

    def __init__(self) -> None:
        self._advertised = {
            band: FractionSeriesAccumulator(
                lambda r, b=band: r.advertised_max_version.band is b
            )
            for band in VersionBand
        }
        self._established = {
            band: FractionSeriesAccumulator(
                lambda r, b=band: r.established_version is not None
                and r.established_version.band is b,
                denominator_predicate=_is_established,
            )
            for band in VersionBand
        }
        self._device_names: set[str] = set()

    def add(self, record: TrafficRecord) -> None:
        self._device_names.add(record.device)
        for accumulator in self._advertised.values():
            accumulator.add(record)
        for accumulator in self._established.values():
            accumulator.add(record)

    def add_batch(
        self,
        device: str,
        adv_totals: list[int],
        adv_hits: list[list[int]],
        est_totals: list[int],
        est_hits: list[list[int]],
    ) -> None:
        """Fold one device chunk's per-month version tallies.

        ``adv_totals``/``est_totals`` are the count-weighted monthly
        sums over all / established records; ``adv_hits[i]`` and
        ``est_hits[i]`` are those of records whose advertised /
        established band is ``list(VersionBand)[i]``.  Tallies land
        exactly where per-record :meth:`add` calls would put them.
        """
        self._device_names.add(device)
        for index, band in enumerate(VersionBand):
            self._advertised[band].bulk_tally(device, adv_totals, adv_hits[index])
            self._established[band].bulk_tally(device, est_totals, est_hits[index])

    def finalize(self) -> VersionHeatmap:
        return VersionHeatmap(
            advertised={band: acc.series() for band, acc in self._advertised.items()},
            established={band: acc.series() for band, acc in self._established.items()},
            devices=sorted(self._device_names),
        )


# ---------------------------------------------------------------------------
# Figures 2 and 3
# ---------------------------------------------------------------------------

@dataclass
class FractionHeatmap:
    """A single (device x month) fraction grid with a shown/hidden rule."""

    series: dict[str, DeviceMonthSeries]
    devices: list[str]
    #: Devices are hidden when their max monthly fraction stays on the
    #: "good" side of this threshold...
    threshold: float
    #: ...where "good" means below the threshold (Fig 2) or above it (Fig 3).
    hide_when_low: bool

    def shown_devices(self) -> list[str]:
        shown = []
        for device in self.devices:
            series = self.series.get(device)
            if series is None:
                continue
            active = series.active_values()
            if not active:
                continue
            extreme = max(active) if self.hide_when_low else min(active)
            if _crosses(extreme, self.threshold, from_below=self.hide_when_low):
                shown.append(device)
        return shown

    def hidden_devices(self) -> list[str]:
        shown = set(self.shown_devices())
        return [device for device in self.devices if device not in shown]


def _advertises_insecure(record: TrafficRecord) -> bool:
    return record.client_hello.advertises_insecure_cipher


def _established_strong(record: TrafficRecord) -> bool:
    code = record.established_cipher_code
    return code is not None and REGISTRY[code].forward_secret


class FractionHeatmapAccumulator:
    """Incremental builder for a single-fraction heatmap (Figures 2/3)."""

    def __init__(
        self, predicate, *, denominator_predicate=None, threshold: float, hide_when_low: bool
    ) -> None:
        self._accumulator = FractionSeriesAccumulator(
            predicate, denominator_predicate=denominator_predicate
        )
        self.threshold = threshold
        self.hide_when_low = hide_when_low

    def add(self, record: TrafficRecord) -> None:
        self._accumulator.add(record)

    def bulk_tally(
        self, device: str, totals: list[int], hits: list[int]
    ) -> None:
        """See :meth:`FractionSeriesAccumulator.bulk_tally`."""
        self._accumulator.bulk_tally(device, totals, hits)

    def finalize(self) -> FractionHeatmap:
        return FractionHeatmap(
            series=self._accumulator.series(),
            devices=self._accumulator.devices,
            threshold=self.threshold,
            hide_when_low=self.hide_when_low,
        )


def insecure_advertised_accumulator() -> FractionHeatmapAccumulator:
    """Figure 2: devices *advertising* insecure suites (lower is better).

    Devices that rarely advertise such suites (max monthly fraction
    under 5%) are not shown, matching the figure's "6 devices ... not
    shown" rule.
    """
    return FractionHeatmapAccumulator(
        _advertises_insecure, threshold=0.05, hide_when_low=True
    )


def strong_established_accumulator() -> FractionHeatmapAccumulator:
    """Figure 3: devices *establishing* forward-secret suites (higher is
    better).  Devices whose connections are virtually always strong are
    not shown ("18 devices ... not shown")."""
    return FractionHeatmapAccumulator(
        _established_strong,
        denominator_predicate=_is_established,
        threshold=_VAST_MAJORITY,
        hide_when_low=False,
    )
