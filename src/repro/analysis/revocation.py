"""Revocation-checking analysis (Table 8), from passive data only.

The paper detects revocation support by scanning passive traffic for:

* connections to CRL distribution points,
* queries to OCSP responders,
* ``status_request`` extensions in ClientHellos (OCSP stapling), and
* ``Must-Staple`` extensions in received certificates.

This module applies the same signals to the passive trace; the
analysis pipeline folds them, as ``analyze_capture(capture).revocation``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..pki.revocation import RevocationMethod
from ..testbed.capture import RevocationEvent, TrafficRecord

__all__ = ["RevocationSummary", "RevocationAccumulator"]


@dataclass
class RevocationSummary:
    """Devices per revocation method (Table 8) and the non-checkers."""

    crl_devices: list[str] = field(default_factory=list)
    ocsp_devices: list[str] = field(default_factory=list)
    stapling_devices: list[str] = field(default_factory=list)
    non_checking_devices: list[str] = field(default_factory=list)

    @property
    def checking_devices(self) -> set[str]:
        return set(self.crl_devices) | set(self.ocsp_devices) | set(self.stapling_devices)

    def table8_rows(self) -> list[tuple[str, str]]:
        return [
            (
                "Certificate Revocation Lists (CRLs)",
                f"{', '.join(self.crl_devices)} ({len(self.crl_devices)})",
            ),
            (
                "Online Certificate Status Protocol (OCSP)",
                f"{', '.join(self.ocsp_devices)} ({len(self.ocsp_devices)})",
            ),
            (
                "OCSP Stapling",
                f"{', '.join(self.stapling_devices)} ({len(self.stapling_devices)})",
            ),
        ]


class RevocationAccumulator:
    """Incremental Table 8 signal scanner (order-independent sets)."""

    def __init__(self) -> None:
        self._crl: set[str] = set()
        self._ocsp: set[str] = set()
        self._stapling: set[str] = set()
        self._devices: set[str] = set()

    def add(self, record: TrafficRecord) -> None:
        self._devices.add(record.device)
        if record.requests_ocsp_staple:
            self._stapling.add(record.device)

    def bulk_add(self, device: str, *, any_staple: bool) -> None:
        """Fold one device chunk's record-side signals (sets, so one
        call per chunk carries the same information as per-record adds)."""
        self._devices.add(device)
        if any_staple:
            self._stapling.add(device)

    def add_revocation_event(self, event: RevocationEvent) -> None:
        if event.method is RevocationMethod.CRL:
            self._crl.add(event.device)
        elif event.method is RevocationMethod.OCSP:
            self._ocsp.add(event.device)

    def finalize(self) -> RevocationSummary:
        summary = RevocationSummary()
        summary.crl_devices = sorted(self._crl)
        summary.ocsp_devices = sorted(self._ocsp)
        summary.stapling_devices = sorted(self._stapling)
        # Non-checkers are defined over devices seen in *traffic*;
        # revocation events always accompany traffic.
        summary.non_checking_devices = sorted(
            self._devices - self._crl - self._ocsp - self._stapling
        )
        return summary

