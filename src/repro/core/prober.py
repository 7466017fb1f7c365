"""The root-store prober: the paper's novel measurement technique (§4.2).

The prober explores a blackbox device's trusted root store through the
TLS *Alert Message* side channel:

1. **Calibration.**  Intercept a boot-time connection with a chain from
   an *arbitrary unknown* CA and record the device's alert; then with a
   chain from a *spoofed copy of a certainly-trusted* CA (one of the
   testbed anchors every device carries) and record that alert.  The
   device is *amenable* when both alerts exist and differ.
2. **Probing.**  For each candidate root certificate, power-cycle the
   device, intercept the same boot-time connection with a spoofed copy
   of the candidate, and classify:

   * alert == unknown-CA alert  -> the candidate is **absent**,
   * alert == bad-signature alert -> the candidate is **present**,
   * no traffic / unexpected alert -> **inconclusive**.

The prober never reads device internals: every inference comes from wire
artifacts.  (A per-certificate "no traffic this reboot" event is
simulated with a seeded RNG at the device's conclusive-rate -- the
real-world noise behind Table 9's denominators.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .. import telemetry as _telemetry
from ..devices.device import Device
from ..mitm.proxy import AttackMode, InterceptionProxy
from ..pki.certificate import Certificate
from ..roothistory.records import RootCARecord
from ..roothistory.universe import RootStoreUniverse
from ..testbed.infrastructure import Testbed
from ..testbed.smartplug import SmartPlug

__all__ = [
    "ProbeOutcome",
    "CertificateProbeResult",
    "AmenabilityCalibration",
    "DeviceProbeReport",
    "RootStoreProber",
]


_TELEMETRY = _telemetry.get()


def _percent_half_up(numerator: int, denominator: int) -> int:
    """``100 * numerator / denominator`` rounded half away from zero.

    Exact integer arithmetic, so 62.5% renders as 63% the way the
    paper's tables do -- Python's ``round`` would banker's-round it
    down to 62%.
    """
    return (200 * numerator + denominator) // (2 * denominator)


class ProbeOutcome(Enum):
    PRESENT = "present"
    ABSENT = "absent"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CertificateProbeResult:
    """Outcome of probing one candidate root on one device."""

    certificate_name: str
    outcome: ProbeOutcome
    observed_alert: str | None = None


@dataclass(frozen=True)
class AmenabilityCalibration:
    """The two calibration alerts (or the reason calibration failed)."""

    amenable: bool
    unknown_ca_alert: str | None = None
    known_ca_alert: str | None = None
    reason: str = ""


@dataclass
class DeviceProbeReport:
    """All probe results for one device (one Table 9 row when amenable)."""

    device: str
    calibration: AmenabilityCalibration
    common_results: list[CertificateProbeResult] = field(default_factory=list)
    deprecated_results: list[CertificateProbeResult] = field(default_factory=list)

    @staticmethod
    def _tally(results: list[CertificateProbeResult]) -> tuple[int, int]:
        """(present, conclusive) counts."""
        conclusive = [r for r in results if r.outcome is not ProbeOutcome.INCONCLUSIVE]
        present = [r for r in conclusive if r.outcome is ProbeOutcome.PRESENT]
        return len(present), len(conclusive)

    @property
    def common_tally(self) -> tuple[int, int]:
        return self._tally(self.common_results)

    @property
    def deprecated_tally(self) -> tuple[int, int]:
        return self._tally(self.deprecated_results)

    def present_deprecated_names(self) -> list[str]:
        """Deprecated roots confirmed present (feeds Figure 4)."""
        return [
            r.certificate_name
            for r in self.deprecated_results
            if r.outcome is ProbeOutcome.PRESENT
        ]

    def table9_row(self) -> tuple[str, str, str]:
        cp, cc = self.common_tally
        dp, dc = self.deprecated_tally
        common_pct = f"{_percent_half_up(cp, cc)}%" if cc else "n/a"
        dep_pct = f"{_percent_half_up(dp, dc)}%" if dc else "n/a"
        return (self.device, f"{common_pct} ({cp}/{cc})", f"{dep_pct} ({dp}/{dc})")


class RootStoreProber:
    """Drives reboot-intercept-observe probe campaigns against devices."""

    #: How many anchor certificates the calibration spoofs; all anchors
    #: are in every device store, so any consistent alert works.
    CALIBRATION_SPOOFS = 2

    def __init__(self, testbed: Testbed, *, universe: RootStoreUniverse | None = None) -> None:
        self.testbed = testbed
        self.universe = universe or testbed.universe
        self.toolbox = testbed.attacker()

    # ------------------------------------------------------------------
    # Single-probe mechanics
    # ------------------------------------------------------------------
    def _observe_alert(self, plug: SmartPlug, proxy: InterceptionProxy) -> tuple[str | None, bool]:
        """Reboot with ``proxy`` intercepting the first boot-time connection;
        return (alert name or None, connection-was-accepted).

        The reboot simulates only that connection: the probe observes
        nothing else, and a power cycle makes its outcome independent of
        the connections that would follow it.
        """
        if _TELEMETRY.enabled:
            _TELEMETRY.registry.counter(
                "iotls_probe_reboots_total", "Device power-cycles driven by the prober."
            ).inc(device=plug.device.name)
        connection = plug.reboot_first_connection(proxy)
        result = connection.attempt.attempts[0]
        if result.established:
            return None, True
        alert = result.client_alert
        return (alert.description.name.lower() if alert else None), False

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def calibrate(self, plug: SmartPlug) -> AmenabilityCalibration:
        """Learn the device's two failure alerts (or fail amenability)."""
        unknown_proxy = InterceptionProxy(toolbox=self.toolbox, mode=AttackMode.UNKNOWN_CA)
        unknown_alert, accepted = self._observe_alert(plug, unknown_proxy)
        if accepted:
            return AmenabilityCalibration(
                amenable=False, reason="device accepted an unknown-CA chain (no validation)"
            )

        known_alerts = set()
        anchors = [self.testbed.anchor(i).certificate for i in range(self.CALIBRATION_SPOOFS)]
        for anchor_cert in anchors:
            proxy = InterceptionProxy(
                toolbox=self.toolbox, mode=AttackMode.SPOOFED_CA, target_root=anchor_cert
            )
            alert, accepted = self._observe_alert(plug, proxy)
            if accepted:
                return AmenabilityCalibration(
                    amenable=False, reason="device accepted a spoofed-CA chain (no validation)"
                )
            known_alerts.add(alert)

        if len(known_alerts) != 1:
            return AmenabilityCalibration(
                amenable=False,
                unknown_ca_alert=unknown_alert,
                reason="inconsistent alerts across calibration spoofs",
            )
        known_alert = next(iter(known_alerts))
        if unknown_alert is None and known_alert is None:
            return AmenabilityCalibration(
                amenable=False, reason="device sends no alerts on connection failures"
            )
        # Amenability requires *both* alerts to exist (§4.2): a device
        # silent on one failure class leaves that class aliased with the
        # no-traffic case, so its probes could never be classified.
        if unknown_alert is None or known_alert is None:
            silent = "unknown-CA" if unknown_alert is None else "bad-signature"
            return AmenabilityCalibration(
                amenable=False,
                unknown_ca_alert=unknown_alert,
                known_ca_alert=known_alert,
                reason=f"device is silent on {silent} failures",
            )
        if unknown_alert == known_alert:
            return AmenabilityCalibration(
                amenable=False,
                unknown_ca_alert=unknown_alert,
                known_ca_alert=known_alert,
                reason="same alert for unknown-CA and bad-signature failures",
            )
        return AmenabilityCalibration(
            amenable=True, unknown_ca_alert=unknown_alert, known_ca_alert=known_alert
        )

    # ------------------------------------------------------------------
    # Per-certificate probing
    # ------------------------------------------------------------------
    def probe_certificate(
        self,
        plug: SmartPlug,
        calibration: AmenabilityCalibration,
        candidate: Certificate,
        *,
        conclusive_rate: float = 1.0,
        noise_key: str = "",
    ) -> CertificateProbeResult:
        """Probe one candidate root against a calibrated device."""
        name = candidate.subject.common_name
        rng = random.Random(f"probe:{plug.device.name}:{name}:{noise_key}")
        if rng.random() > conclusive_rate:
            # The device generated no classifiable traffic this reboot.
            return self._record_probe(
                CertificateProbeResult(certificate_name=name, outcome=ProbeOutcome.INCONCLUSIVE)
            )

        proxy = InterceptionProxy(
            toolbox=self.toolbox, mode=AttackMode.SPOOFED_CA, target_root=candidate
        )
        alert, accepted = self._observe_alert(plug, proxy)
        if accepted:  # pragma: no cover - calibrated devices validate
            return self._record_probe(
                CertificateProbeResult(
                    certificate_name=name, outcome=ProbeOutcome.INCONCLUSIVE, observed_alert=None
                )
            )
        if alert is None and not (
            calibration.known_ca_alert is None or calibration.unknown_ca_alert is None
        ):
            # Silence is only a signal when calibration established it as
            # one; against two real calibration alerts it is noise.
            outcome = ProbeOutcome.INCONCLUSIVE
        elif alert == calibration.known_ca_alert:
            outcome = ProbeOutcome.PRESENT
        elif alert == calibration.unknown_ca_alert:
            outcome = ProbeOutcome.ABSENT
        else:
            outcome = ProbeOutcome.INCONCLUSIVE
        return self._record_probe(
            CertificateProbeResult(certificate_name=name, outcome=outcome, observed_alert=alert)
        )

    @staticmethod
    def _record_probe(result: CertificateProbeResult) -> CertificateProbeResult:
        if _TELEMETRY.enabled:
            _TELEMETRY.registry.counter(
                "iotls_probe_iterations_total", "Per-certificate probe iterations by outcome."
            ).inc(outcome=result.outcome.value)
        return result

    # ------------------------------------------------------------------
    # Full campaign
    # ------------------------------------------------------------------
    def probe_device(
        self,
        device: Device,
        *,
        common: Sequence[RootCARecord] | None = None,
        deprecated: Sequence[RootCARecord] | None = None,
    ) -> DeviceProbeReport:
        """Calibrate, then sweep the common and deprecated probe sets."""
        plug = SmartPlug(device)
        calibration = self.calibrate(plug)
        report = DeviceProbeReport(device=device.name, calibration=calibration)
        if not calibration.amenable:
            return report

        store_profile = device.profile.store
        common = common if common is not None else self.universe.common_records()
        deprecated = (
            deprecated if deprecated is not None else self.universe.deprecated_records()
        )
        for record in common:
            report.common_results.append(
                self.probe_certificate(
                    plug,
                    calibration,
                    record.certificate,
                    conclusive_rate=store_profile.conclusive_rate_common,
                    noise_key="common",
                )
            )
        for record in deprecated:
            report.deprecated_results.append(
                self.probe_certificate(
                    plug,
                    calibration,
                    record.certificate,
                    conclusive_rate=store_profile.conclusive_rate_deprecated,
                    noise_key="deprecated",
                )
            )
        return report
