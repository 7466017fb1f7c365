"""Connection-security-under-attack audits (§5.1 -> Tables 5 and 6).

Two experiments:

* **Downgrade on failure** (Table 5).  For each tested destination the
  auditor mounts *IncompleteHandshake* (silence after ClientHello) and
  *FailedHandshake* (self-signed certificate) probes and watches whether
  the device retries with weaker security.  The classification is pure
  wire observation -- it compares the retry ClientHello against the
  original (lower maximum version?  collapsed cipher list?  newly added
  insecure suite or SHA-1 signature scheme?).
* **Old-version establishment** (Table 6).  A responder with *valid*
  credentials negotiates TLS 1.0 / TLS 1.1 in its ServerHello; a device
  that completes such a handshake still ships support for the deprecated
  version, even if it never advertises it as a maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..devices.device import Device
from ..devices.profile import ACTIVE_EXPERIMENT_MONTH, DestinationSpec
from ..mitm.proxy import AttackMode, InterceptionProxy, VersionProbeResponder
from ..testbed.infrastructure import Testbed
from ..tls.messages import ClientHello
from ..tls.extensions import SignatureScheme
from ..tls.versions import ProtocolVersion

__all__ = [
    "DowngradeKind",
    "DowngradeObservation",
    "DeviceDowngradeReport",
    "OldVersionSupport",
    "DowngradeAuditor",
    "classify_downgrade",
]


class DowngradeKind(Enum):
    """What got weaker in the retry hello (Table 5 'Behavior')."""

    VERSION_FALLBACK = "version_fallback"
    CIPHER_COLLAPSE = "cipher_collapse"  # e.g. 73 suites -> 1 RC4 suite
    WEAKER_CIPHERS = "weaker_ciphers"  # added insecure suite / SHA-1 sigs
    NONE = "none"


@dataclass(frozen=True)
class DowngradeObservation:
    """Blackbox comparison of the original and retry ClientHellos."""

    kind: DowngradeKind
    detail: str = ""
    retry_max_version: ProtocolVersion | None = None

    @property
    def downgraded(self) -> bool:
        return self.kind is not DowngradeKind.NONE


def classify_downgrade(original: ClientHello, retry: ClientHello | None) -> DowngradeObservation:
    """Compare two hellos from the same connection attempt sequence."""
    if retry is None:
        return DowngradeObservation(kind=DowngradeKind.NONE)

    if retry.max_version < original.max_version:
        return DowngradeObservation(
            kind=DowngradeKind.VERSION_FALLBACK,
            detail=f"Falls back to using {retry.max_version.label}",
            retry_max_version=retry.max_version,
        )

    original_suites = set(original.cipher_codes)
    retry_suites = set(retry.cipher_codes)
    if len(retry_suites) == 1 and len(original_suites) > 1:
        lone = retry.cipher_suites()[0].name if retry.cipher_suites() else hex(retry.cipher_codes[0])
        return DowngradeObservation(
            kind=DowngradeKind.CIPHER_COLLAPSE,
            detail=(
                f"Falls back from offering {len(original_suites)} ciphersuites "
                f"to just 1 ({lone})"
            ),
            retry_max_version=retry.max_version,
        )

    added = retry_suites - original_suites
    added_insecure = [
        suite.name for suite in retry.cipher_suites() if suite.code in added and suite.is_insecure
    ]
    weaker_sigs = _added_sha1_signature(original, retry)
    if added_insecure or weaker_sigs:
        parts = []
        if added_insecure:
            parts.append(" and ".join(sorted(added_insecure)))
        if weaker_sigs:
            parts.append("RSA_PKCS1_SHA1")
        return DowngradeObservation(
            kind=DowngradeKind.WEAKER_CIPHERS,
            detail=(
                "Falls back to supporting a weaker ciphersuite and signature "
                f"algorithm ({' and '.join(parts)})"
            ),
            retry_max_version=retry.max_version,
        )
    return DowngradeObservation(kind=DowngradeKind.NONE)


def _added_sha1_signature(original: ClientHello, retry: ClientHello) -> bool:
    from ..tls.extensions import ExtensionType

    def schemes(hello: ClientHello) -> set[int]:
        ext = hello.extension(ExtensionType.SIGNATURE_ALGORITHMS)
        return set(ext.data) if ext else set()

    sha1 = SignatureScheme.RSA_PKCS1_SHA1.value
    return sha1 in schemes(retry) and sha1 not in schemes(original)


@dataclass
class DeviceDowngradeReport:
    """One device's Table 5 evidence."""

    device: str
    downgrades_on_failed: bool = False
    downgrades_on_incomplete: bool = False
    observations: dict[str, DowngradeObservation] = field(default_factory=dict)
    tested_destinations: int = 0

    @property
    def downgraded_destinations(self) -> int:
        return sum(1 for obs in self.observations.values() if obs.downgraded)

    @property
    def downgrades(self) -> bool:
        return self.downgraded_destinations > 0

    @property
    def behavior(self) -> str:
        for obs in self.observations.values():
            if obs.downgraded:
                return obs.detail
        return ""

    def table5_row(self) -> tuple[str, str, str, str, str]:
        def mark(flag: bool) -> str:
            return "yes" if flag else "no"

        return (
            self.device,
            mark(self.downgrades_on_failed),
            mark(self.downgrades_on_incomplete),
            self.behavior,
            f"{self.downgraded_destinations} / {self.tested_destinations}",
        )


@dataclass(frozen=True)
class OldVersionSupport:
    """One device's Table 6 row."""

    device: str
    tls10: bool
    tls11: bool

    @property
    def any_old(self) -> bool:
        return self.tls10 or self.tls11


class DowngradeAuditor:
    """Runs the Table 5 and Table 6 experiments."""

    def __init__(self, testbed: Testbed) -> None:
        self.testbed = testbed
        self.toolbox = testbed.attacker()

    # ------------------------------------------------------------------
    # Table 5: downgrade on failure
    # ------------------------------------------------------------------
    def _probe_destination(
        self, device: Device, destination: DestinationSpec, mode: AttackMode
    ) -> DowngradeObservation:
        device.power_cycle()
        proxy = InterceptionProxy(toolbox=self.toolbox, mode=mode)
        connection = device.connect_destination(destination, proxy, month=ACTIVE_EXPERIMENT_MONTH)
        attempts = connection.attempt.attempts
        retry_hello = attempts[1].client_hello if len(attempts) > 1 else None
        return classify_downgrade(attempts[0].client_hello, retry_hello)

    def audit_device_downgrade(self, device: Device) -> DeviceDowngradeReport:
        report = DeviceDowngradeReport(device=device.name)
        tested = [d for d in device.profile.destinations if d.tested_for_downgrade]
        report.tested_destinations = len(tested)
        for destination in tested:
            incomplete_obs = self._probe_destination(
                device, destination, AttackMode.INCOMPLETE_HANDSHAKE
            )
            failed_obs = self._probe_destination(device, destination, AttackMode.FAILED_HANDSHAKE)
            if incomplete_obs.downgraded:
                report.downgrades_on_incomplete = True
            if failed_obs.downgraded:
                report.downgrades_on_failed = True
            chosen = incomplete_obs if incomplete_obs.downgraded else failed_obs
            report.observations[destination.hostname] = chosen
        device.power_cycle()
        return report

    # ------------------------------------------------------------------
    # Table 6: old-version establishment
    # ------------------------------------------------------------------
    def audit_device_old_versions(self, device: Device) -> OldVersionSupport:
        support = {}
        for version in (ProtocolVersion.TLS_1_0, ProtocolVersion.TLS_1_1):
            support[version] = False
            for destination in device.profile.destinations:
                genuine = self.testbed.server_for(destination)
                responder = VersionProbeResponder(version=version, chain=genuine.chain)
                device.power_cycle()
                connection = device.connect_destination(
                    destination, responder, month=ACTIVE_EXPERIMENT_MONTH
                )
                first_attempt = connection.attempt.attempts[0]
                if first_attempt.established and first_attempt.established_version is version:
                    support[version] = True
                    break
        device.power_cycle()
        return OldVersionSupport(
            device=device.name,
            tls10=support[ProtocolVersion.TLS_1_0],
            tls11=support[ProtocolVersion.TLS_1_1],
        )

    # ------------------------------------------------------------------
    # Full sweeps
    # ------------------------------------------------------------------
    def audit_all_downgrades(self) -> list[DeviceDowngradeReport]:
        from ..devices.catalog import active_devices

        return [
            self.audit_device_downgrade(self.testbed.device(profile))
            for profile in active_devices()
        ]

    def audit_all_old_versions(self) -> list[OldVersionSupport]:
        from ..devices.catalog import active_devices

        return [
            self.audit_device_old_versions(self.testbed.device(profile))
            for profile in active_devices()
        ]
