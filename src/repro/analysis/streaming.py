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

import numpy as np

from ..longitudinal.adoption import AdoptionEvent, detect_adoption_events_from_heatmaps
from ..longitudinal.heatmaps import (
    FractionHeatmap,
    VersionHeatmap,
    VersionHeatmapAccumulator,
    insecure_advertised_accumulator,
    month_tally,
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
#: vectorised chunk path shares with the heatmap accumulators).
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

        Per-record features are extracted in a single pass (with the
        expensive ClientHello scans cached per distinct hello) into flat
        arrays, then folded as integer month tallies -- no
        :class:`~repro.testbed.capture.TrafficRecord` is materialised
        and no per-record method dispatch happens.  Every tally is
        count-weighted, so folding base records with their full counts
        is exactly equivalent to folding the post-split stream: the
        result is byte-identical to a :meth:`add` loop over
        ``chunk.iter_records()``, at any ``split_cap``.
        """
        n = len(chunk)
        if n:
            device = chunk.device
            months = chunk.month_array()
            counts = chunk.count_array()

            cache = self._hello_cache
            adv_band = np.empty(n, dtype=np.int64)
            insecure = np.empty(n, dtype=bool)
            tls13 = np.empty(n, dtype=bool)
            rc4 = np.empty(n, dtype=bool)
            any_staple = False
            for index, hello in enumerate(chunk.client_hellos):
                entry = cache.get(id(hello))
                if entry is None:
                    entry = cache[id(hello)] = (hello, _hello_features(hello))
                adv_band[index], insecure[index], staple, tls13[index], rc4[index] = (
                    entry[1]
                )
                any_staple = any_staple or staple

            version_band = _VERSION_BAND
            est_band = np.fromiter(
                (
                    -1 if version is None else version_band[version]
                    for version in chunk.established_versions
                ),
                dtype=np.int64,
                count=n,
            )
            est_mask = np.fromiter(chunk.establisheds, dtype=bool, count=n)
            forward_secret = _FORWARD_SECRET
            strong = np.fromiter(
                (
                    code is not None and forward_secret[code]
                    for code in chunk.established_cipher_codes
                ),
                dtype=bool,
                count=n,
            )

            self._records_seen += chunk.record_total()
            self._connections_seen += chunk.connection_total()
            self._versions.add_batch(device, months, counts, adv_band, est_mask, est_band)
            self._insecure.bulk_tally(
                device,
                month_tally(months, counts),
                month_tally(months, counts, insecure),
            )
            self._strong.bulk_tally(
                device,
                month_tally(months, counts, est_mask),
                month_tally(months, counts, est_mask & strong),
            )
            self._revocation.bulk_add(device, any_staple=any_staple)
            self._dataset.bulk_add(
                device, chunk.connection_total(), np.unique(months)
            )
            late = months >= self._comparison.from_month
            self._comparison.bulk_add(
                int(counts[late].sum()),
                int(counts[late & tls13].sum()),
                int(counts[late & rc4].sum()),
            )
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
