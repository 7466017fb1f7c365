"""First- vs third-party version-bias analysis (§5.1).

The paper investigates why 15 devices advertise *multiple maximum* TLS
versions to the same destinations.  One hypothesis: different device
functionality (e.g. third-party software) uses different configurations,
in which case connections to first- and third-party destinations would
consistently use different versions.  The authors labelled each
connection first/third-party (after Ren et al.) and "found no patterns
that indicate bias toward one TLS version depending on the destination
type" -- rejecting that hypothesis and leaving multiple independent TLS
instances as the consistent explanation.

This module runs that exact test: per device, a contingency table of
(advertised max version x destination party) and a chi-square
independence test over it.  The test is written out in closed form
(Pearson's statistic, Yates' correction at one degree of freedom, and
the chi-square survival function at integer degrees of freedom), so
the analysis package needs no statistics library at import time.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from ..devices.profile import Party
from ..testbed.capture import GatewayCapture

__all__ = ["PartyBiasResult", "devices_with_multiple_max_versions", "test_party_bias"]

#: Significance level for the independence test.
ALPHA = 0.01


#: Minimum Cramér's V for a dependence to count as a *pattern*: with the
#: study's connection volumes, chi-square flags negligible differences,
#: so the paper-style "no patterns that indicate bias" conclusion needs
#: an effect-size threshold, not just significance.
MIN_EFFECT_SIZE = 0.3


@dataclass(frozen=True)
class PartyBiasResult:
    """Chi-square independence result for one device."""

    device: str
    versions: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]  # rows = versions, cols = (first, third)
    p_value: float | None  # None when the test is inapplicable
    cramers_v: float | None = None

    @property
    def biased(self) -> bool:
        """Version choice *meaningfully* depends on destination party:
        statistically significant and a non-trivial effect size."""
        return (
            self.p_value is not None
            and self.p_value < ALPHA
            and self.cramers_v is not None
            and self.cramers_v >= MIN_EFFECT_SIZE
        )


def devices_with_multiple_max_versions(capture: GatewayCapture) -> list[str]:
    """Devices whose ClientHellos advertise more than one maximum version."""
    versions_by_device: dict[str, set[str]] = {}
    for record in capture.records:
        versions_by_device.setdefault(record.device, set()).add(
            record.advertised_max_version.label
        )
    return sorted(device for device, versions in versions_by_device.items() if len(versions) > 1)


def test_party_bias(capture: GatewayCapture, device: str) -> PartyBiasResult:
    """The §5.1 hypothesis test for one device."""
    counts: Counter = Counter()
    for record in capture.records:
        if record.device != device:
            continue
        counts[(record.advertised_max_version.label, record.party)] += record.count

    # A version seen only in zero-count records has no row: the test
    # needs positive margins throughout.
    versions = sorted({version for (version, _), total in counts.items() if total > 0})
    table = [
        [counts.get((version, Party.FIRST), 0), counts.get((version, Party.THIRD), 0)]
        for version in versions
    ]
    # The test needs at least a 2x2 table with both parties represented.
    if len(versions) < 2 or not all(map(sum, zip(*table))):
        p_value = None
        cramers_v = None
    else:
        chi2, p_value = _chi2_independence(table)
        # Cramér's V; min(rows, columns) - 1 is 1 for a k x 2 table.
        cramers_v = math.sqrt(chi2 / sum(map(sum, table)))
    return PartyBiasResult(
        device=device,
        versions=tuple(versions),
        table=tuple(tuple(row) for row in table),
        p_value=p_value,
        cramers_v=cramers_v,
    )


def _chi2_independence(table: list[list[int]]) -> tuple[float, float]:
    """Pearson's chi-square test of independence on a table of counts
    whose row and column totals are all positive: ``(chi2, p_value)``.

    The same statistic as ``scipy.stats.chi2_contingency``: expected
    counts are row total x column total / n, and at one degree of
    freedom Yates' correction moves each observed count towards its
    expectation by ``min(0.5, |o - e|)``.
    """
    row_totals = [sum(row) for row in table]
    column_totals = [sum(column) for column in zip(*table)]
    n = sum(row_totals)
    dof = (len(row_totals) - 1) * (len(column_totals) - 1)
    chi2 = 0.0
    for row, row_total in zip(table, row_totals):
        for observed, column_total in zip(row, column_totals):
            expected = row_total * column_total / n
            deviation = abs(observed - expected)
            if dof == 1:
                deviation -= min(0.5, deviation)
            chi2 += deviation * deviation / expected
    return chi2, _chi2_survival(chi2, dof)


def _chi2_survival(x: float, dof: int) -> float:
    """P(X >= x) for X ~ chi-square with a positive integer ``dof``.

    Even dof: ``exp(-x/2) * sum_{i < dof/2} (x/2)^i / i!``.  Odd dof:
    ``erfc(sqrt(x/2))`` plus ``sqrt(2x/pi) * exp(-x/2)`` times
    ``sum_{1 <= i <= (dof-1)/2} x^(i-1) / (1 * 3 * ... * (2i-1))``.
    Every term is non-negative, so nothing cancels.
    """
    half = x / 2.0
    total, term = 0.0, 1.0
    if dof % 2 == 0:
        for i in range(1, dof // 2 + 1):
            total += term
            term *= half / i
        return math.exp(-half) * total
    for i in range(1, (dof + 1) // 2):
        total += term
        term *= x / (2 * i + 1)
    return math.erfc(math.sqrt(half)) + math.sqrt(2.0 * x / math.pi) * math.exp(-half) * total
