"""Aggregate comparisons with prior work (§5.1, "Comparison with prior work").

Two headline aggregates over the passive capture:

* the fraction of client connections advertising TLS 1.3 support
  (the paper: ≈17% for IoT vs ≈60% for North American web clients
  [Holz et al., 11/2019]), and
* the fraction of connections advertising RC4 suites (the paper: ≈60%
  for IoT vs ≈10% in Kotzias et al.'s 4/2018 general-traffic data).

Both fractions are computed over the final study months (7/2019 onward,
bracketing the cited measurement dates); the analysis pipeline folds
them, as ``analyze_capture(capture).comparison``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..testbed.capture import TrafficRecord
from ..tls.ciphersuites import BulkCipher
from ..tls.versions import ProtocolVersion

__all__ = ["PriorWorkComparison", "PriorWorkAccumulator"]


@dataclass(frozen=True)
class PriorWorkComparison:
    tls13_fraction: float
    rc4_fraction: float
    #: The published reference points.
    web_tls13_fraction: float = 0.60
    web_rc4_fraction: float = 0.10

    def summary(self) -> str:
        return (
            f"IoT TLS 1.3 advertisement: {self.tls13_fraction:.0%} "
            f"(web clients 11/2019: ~{self.web_tls13_fraction:.0%}); "
            f"IoT RC4 advertisement: {self.rc4_fraction:.0%} "
            f"(general traffic 4/2018: ~{self.web_rc4_fraction:.0%})"
        )


class PriorWorkAccumulator:
    """Incremental late-window TLS 1.3 / RC4 advertisement tallies."""

    def __init__(self, *, from_month: int = 18) -> None:
        self.from_month = from_month
        self._total = 0
        self._tls13 = 0
        self._rc4 = 0

    def add(self, record: TrafficRecord) -> None:
        if record.month < self.from_month:
            return
        self._total += record.count
        if ProtocolVersion.TLS_1_3 in record.client_hello.advertised_versions():
            self._tls13 += record.count
        if any(
            suite.cipher is BulkCipher.RC4_128
            for suite in record.client_hello.cipher_suites()
        ):
            self._rc4 += record.count

    def bulk_add(self, total: int, tls13: int, rc4: int) -> None:
        """Fold pre-summed late-window connection counts (the caller has
        already applied the ``from_month`` filter and the two predicates)."""
        self._total += total
        self._tls13 += tls13
        self._rc4 += rc4

    def finalize(self) -> PriorWorkComparison:
        if self._total == 0:
            return PriorWorkComparison(tls13_fraction=0.0, rc4_fraction=0.0)
        return PriorWorkComparison(
            tls13_fraction=self._tls13 / self._total,
            rc4_fraction=self._rc4 / self._total,
        )

