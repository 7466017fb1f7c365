"""Single-pass streaming analysis over a trace record stream.

:class:`TraceAnalysisPipeline` is a :class:`~repro.testbed.capture.CaptureSink`
that feeds every incremental accumulator in the analysis layer at once:
the Figure 1 version heatmap, the Figure 2/3 fraction heatmaps, the
Table 8 revocation scanner, the §4.1 dataset statistics and the prior-
work comparison.  Its state is O(devices x months) integer tallies, so
a paper-scale run (~17M connections) streams through it in bounded
memory -- the records themselves are never materialised.

Every run folds its trace through the pipeline chunk by chunk
(:meth:`TraceAnalysisPipeline.add_batch`): ``iotls trace`` in both
modes, ``iotls report`` and the ``iotls check`` fresh run.
:func:`analyze_capture` is the one record-by-record fold
(:meth:`TraceAnalysisPipeline.add` over a materialised
:class:`~repro.testbed.capture.GatewayCapture`): the reference the
chunk fold is tested against, and the entry point for a capture that
is already in memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..devices.profile import STUDY_MONTHS
from ..longitudinal.adoption import AdoptionEvent, detect_adoption_events_from_heatmaps
from ..longitudinal.heatmaps import (
    FractionHeatmap,
    VersionHeatmap,
    VersionHeatmapAccumulator,
    insecure_advertised_accumulator,
    strong_established_accumulator,
)
from ..testbed.capture import (
    GatewayCapture,
    RecordChunk,
    RevocationEvent,
    TrafficRecord,
)
from ..tls.ciphersuites import REGISTRY, BulkCipher
from ..tls.messages import ClientHello
from ..tls.versions import ProtocolVersion, VersionBand
from .comparison import PriorWorkAccumulator, PriorWorkComparison
from .datasets import DatasetStatistics, DatasetStatisticsAccumulator
from .revocation import RevocationAccumulator, RevocationSummary

__all__ = ["TraceAnalysis", "TraceAnalysisPipeline", "analyze_capture"]

#: VersionBand -> index into ``list(VersionBand)`` (the band encoding the
#: chunk fold shares with the heatmap accumulators).
_BAND_INDEX = {band: index for index, band in enumerate(VersionBand)}
#: ProtocolVersion -> band index, precomputed for the per-record loop.
_VERSION_BAND = {
    version: _BAND_INDEX[version.band] for version in ProtocolVersion
}
#: Established-cipher codepoint -> forward secrecy, flattened from the
#: suite registry so the chunk loop is one dict hit per record.
_FORWARD_SECRET = {code: suite.forward_secret for code, suite in REGISTRY.items()}


def _hello_features(hello: ClientHello) -> tuple[int, bool, bool, bool, bool]:
    """(advertised band index, insecure, staple, tls13, rc4) for one hello.

    Hellos are frozen and heavily shared across months and destinations,
    so the pipeline caches this per distinct hello object -- the
    expensive extension/ciphersuite scans run once per hello, not once
    per record.
    """
    suites = hello.cipher_suites()
    return (
        _VERSION_BAND[hello.max_version],
        any(suite.is_insecure for suite in suites),
        hello.requests_ocsp_staple,
        ProtocolVersion.TLS_1_3 in hello.advertised_versions(),
        any(suite.cipher is BulkCipher.RC4_128 for suite in suites),
    )


@dataclass(frozen=True)
class TraceAnalysis:
    """Every passive-trace analysis artifact, computed in one pass."""

    versions: VersionHeatmap
    insecure: FractionHeatmap
    strong: FractionHeatmap
    adoption_events: list[AdoptionEvent]
    revocation: RevocationSummary
    dataset: DatasetStatistics
    comparison: PriorWorkComparison
    flow_records: int
    connections: int
    revocation_event_count: int


class TraceAnalysisPipeline:
    """A CaptureSink folding the record stream into all accumulators."""

    def __init__(self) -> None:
        self._versions = VersionHeatmapAccumulator()
        self._insecure = insecure_advertised_accumulator()
        self._strong = strong_established_accumulator()
        self._revocation = RevocationAccumulator()
        self._dataset = DatasetStatisticsAccumulator()
        self._comparison = PriorWorkAccumulator()
        self._records_seen = 0
        self._connections_seen = 0
        self._revocation_events_seen = 0
        #: id(hello) -> (hello, its features).  Hashing the frozen hello
        #: dataclass of enums would cost more than the scan it saves; the
        #: entry holds the hello, so its id is not reused while cached.
        self._hello_cache: dict[
            int, tuple[ClientHello, tuple[int, bool, bool, bool, bool]]
        ] = {}

    # -- CaptureSink protocol ------------------------------------------
    @property
    def records_seen(self) -> int:
        return self._records_seen

    def add(self, record: TrafficRecord) -> None:
        self._records_seen += 1
        self._connections_seen += record.count
        self._versions.add(record)
        self._insecure.add(record)
        self._strong.add(record)
        self._revocation.add(record)
        self._dataset.add(record)
        self._comparison.add(record)

    def add_revocation_event(self, event: RevocationEvent) -> None:
        self._revocation_events_seen += 1
        self._revocation.add_revocation_event(event)

    def add_batch(self, chunk: RecordChunk) -> None:
        """Fold one columnar device chunk into every accumulator at once.

        One pass over the chunk's columns (with the expensive
        ClientHello scans cached per distinct hello) fills
        length-``STUDY_MONTHS`` integer tallies, which are then folded
        into every accumulator -- no
        :class:`~repro.testbed.capture.TrafficRecord` is materialised
        and no per-record method dispatch happens.  Every tally is
        count-weighted, so folding base records with their full counts
        is exactly equivalent to folding the post-split stream: the
        result is byte-identical to a :meth:`add` loop over
        ``chunk.iter_records()``, at any ``split_cap``.
        """
        if chunk.counts:
            device = chunk.device
            cache = self._hello_cache
            version_band = _VERSION_BAND
            forward_secret = _FORWARD_SECRET
            from_month = self._comparison.from_month
            adv_totals = [0] * STUDY_MONTHS
            est_totals = [0] * STUDY_MONTHS
            adv_hits = [[0] * STUDY_MONTHS for _ in VersionBand]
            est_hits = [[0] * STUDY_MONTHS for _ in VersionBand]
            insecure_hits = [0] * STUDY_MONTHS
            strong_hits = [0] * STUDY_MONTHS
            late = late_tls13 = late_rc4 = 0
            any_staple = False
            for month, count, hello, established, version, code in zip(
                chunk.months,
                chunk.counts,
                chunk.client_hellos,
                chunk.establisheds,
                chunk.established_versions,
                chunk.established_cipher_codes,
            ):
                entry = cache.get(id(hello))
                if entry is None:
                    entry = cache[id(hello)] = (hello, _hello_features(hello))
                band, insecure, staple, tls13, rc4 = entry[1]
                adv_totals[month] += count
                adv_hits[band][month] += count
                if insecure:
                    insecure_hits[month] += count
                any_staple = any_staple or staple
                if established:
                    est_totals[month] += count
                    if version is not None:
                        est_hits[version_band[version]][month] += count
                    if code is not None and forward_secret[code]:
                        strong_hits[month] += count
                if month >= from_month:
                    late += count
                    if tls13:
                        late_tls13 += count
                    if rc4:
                        late_rc4 += count

            connections = chunk.connection_total()
            self._records_seen += chunk.record_total()
            self._connections_seen += connections
            self._versions.add_batch(device, adv_totals, adv_hits, est_totals, est_hits)
            self._insecure.bulk_tally(device, adv_totals, insecure_hits)
            self._strong.bulk_tally(device, est_totals, strong_hits)
            self._revocation.bulk_add(device, any_staple=any_staple)
            self._dataset.bulk_add(device, connections, set(chunk.months))
            self._comparison.bulk_add(late, late_tls13, late_rc4)
        for event in chunk.revocation_events:
            self.add_revocation_event(event)

    # ------------------------------------------------------------------
    def finalize(self) -> TraceAnalysis:
        versions = self._versions.finalize()
        insecure = self._insecure.finalize()
        strong = self._strong.finalize()
        return TraceAnalysis(
            versions=versions,
            insecure=insecure,
            strong=strong,
            adoption_events=detect_adoption_events_from_heatmaps(
                versions, insecure, strong
            ),
            revocation=self._revocation.finalize(),
            dataset=self._dataset.finalize(),
            comparison=self._comparison.finalize(),
            flow_records=self._records_seen,
            connections=self._connections_seen,
            revocation_event_count=self._revocation_events_seen,
        )


def analyze_capture(capture: GatewayCapture) -> TraceAnalysis:
    """Every analysis of a materialised capture, folded record by record."""
    pipeline = TraceAnalysisPipeline()
    for record in capture.iter_records():
        pipeline.add(record)
    for event in capture.iter_revocation_events():
        pipeline.add_revocation_event(event)
    return pipeline.finalize()
