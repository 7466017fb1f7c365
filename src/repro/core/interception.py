"""TLS interception audit (Table 2 attacks -> Table 7 results).

For every active device and every destination, the auditor mounts the
three interception attacks:

* **NoValidation** -- self-signed certificate,
* **WrongHostname** -- a valid chain for the attacker's own domain,
* **InvalidBasicConstraints** -- that (non-CA) certificate used as an
  issuer for the target hostname.

Each (destination, attack) pair is tried with several *consecutive*
connection attempts before the device is power-cycled: the Yi Camera
disables certificate validation after three consecutive failures, a
behaviour only repeated attempts expose.  Successful interceptions also
capture the decrypted application data, reproducing the paper's finding
that 7 of the 11 vulnerable devices leak sensitive payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import telemetry as _telemetry
from ..devices.device import Device
from ..devices.profile import ACTIVE_EXPERIMENT_MONTH, DestinationSpec
from ..mitm.proxy import AttackMode, InterceptionProxy
from ..testbed.infrastructure import Testbed

__all__ = [
    "TABLE2_ATTACKS",
    "AttackResult",
    "DestinationAuditResult",
    "DeviceInterceptionReport",
    "InterceptionAuditor",
]

_TELEMETRY = _telemetry.get()

TABLE2_ATTACKS: tuple[AttackMode, ...] = (
    AttackMode.NO_VALIDATION,
    AttackMode.INVALID_BASIC_CONSTRAINTS,
    AttackMode.WRONG_HOSTNAME,
)


@dataclass(frozen=True)
class AttackResult:
    """Outcome of one attack against one destination."""

    attack: AttackMode
    intercepted: bool
    attempts_needed: int | None  # which consecutive attempt succeeded
    captured_plaintext: tuple[str, ...] = ()


@dataclass
class DestinationAuditResult:
    """All three attacks against one destination."""

    hostname: str
    instance: str
    results: dict[AttackMode, AttackResult] = field(default_factory=dict)
    sensitive_payload: str | None = None

    @property
    def vulnerable(self) -> bool:
        return any(result.intercepted for result in self.results.values())

    def intercepted_by(self, attack: AttackMode) -> bool:
        result = self.results.get(attack)
        return result.intercepted if result else False


@dataclass
class DeviceInterceptionReport:
    """One device's Table 7 row (plus per-destination detail)."""

    device: str
    destinations: list[DestinationAuditResult] = field(default_factory=list)

    def vulnerable_to(self, attack: AttackMode) -> bool:
        return any(d.intercepted_by(attack) for d in self.destinations)

    @property
    def vulnerable(self) -> bool:
        return any(d.vulnerable for d in self.destinations)

    @property
    def vulnerable_destinations(self) -> int:
        return sum(1 for d in self.destinations if d.vulnerable)

    @property
    def total_destinations(self) -> int:
        return len(self.destinations)

    @property
    def leaks_sensitive_data(self) -> bool:
        """Did any *successful* interception capture a sensitive payload?"""
        return any(
            d.vulnerable and d.sensitive_payload is not None for d in self.destinations
        )

    def table7_row(self) -> tuple[str, str, str, str, str]:
        def mark(flag: bool) -> str:
            return "yes" if flag else "no"

        return (
            self.device,
            mark(self.vulnerable_to(AttackMode.NO_VALIDATION)),
            mark(self.vulnerable_to(AttackMode.INVALID_BASIC_CONSTRAINTS)),
            mark(self.vulnerable_to(AttackMode.WRONG_HOSTNAME)),
            f"{self.vulnerable_destinations} / {self.total_destinations}",
        )


class InterceptionAuditor:
    """Runs the Table 2 attack suite against devices."""

    #: Consecutive connection attempts per (destination, attack) before a
    #: power cycle -- enough to trip a disable-after-3-failures policy.
    CONSECUTIVE_ATTEMPTS = 4

    def __init__(self, testbed: Testbed) -> None:
        self.testbed = testbed
        self.toolbox = testbed.attacker()

    def attack_destination(
        self, device: Device, destination: DestinationSpec, attack: AttackMode
    ) -> AttackResult:
        """Mount one attack with consecutive retries (no reboot between)."""
        device.power_cycle()
        proxy = InterceptionProxy(toolbox=self.toolbox, mode=attack)
        for attempt_number in range(1, self.CONSECUTIVE_ATTEMPTS + 1):
            connection = device.connect_destination(
                destination, proxy, month=ACTIVE_EXPERIMENT_MONTH
            )
            final = connection.attempt.final
            if final.established:
                if _TELEMETRY.enabled:
                    _TELEMETRY.registry.counter(
                        "iotls_interception_successes_total",
                        "Successful interceptions (device accepted forged credentials).",
                    ).inc(mode=attack.value)
                return AttackResult(
                    attack=attack,
                    intercepted=True,
                    attempts_needed=attempt_number,
                    captured_plaintext=final.application_data,
                )
        return AttackResult(attack=attack, intercepted=False, attempts_needed=None)

    def audit_device(self, device: Device) -> DeviceInterceptionReport:
        report = DeviceInterceptionReport(device=device.name)
        for destination in device.profile.destinations:
            result = DestinationAuditResult(
                hostname=destination.hostname,
                instance=destination.instance,
                sensitive_payload=destination.sensitive_payload,
            )
            for attack in TABLE2_ATTACKS:
                result.results[attack] = self.attack_destination(device, destination, attack)
            report.destinations.append(result)
        device.power_cycle()
        return report

    def audit_all(self) -> list[DeviceInterceptionReport]:
        """Audit every active device (Table 7's scope)."""
        return [
            self.audit_device(self.testbed.device(profile))
            for profile in self._active_profiles()
        ]

    def _active_profiles(self):
        from ..devices.catalog import active_devices

        return active_devices()
