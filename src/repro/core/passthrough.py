"""The TrafficPassthrough verification experiment (§4.2).

Attacked connections fail, and a failure early in a device's boot can
suppress *later* connections -- potentially hiding vulnerable endpoints
from the interception audit.  Following the paper (and mitmproxy's
``tls_passthrough`` example), this experiment re-runs every attack while
passing through any connection that previously failed under attack, then
checks two things:

* whether the extra connectivity surfaces **new destinations** (the
  paper saw ≈20.4% more, attributed to success responses from earlier
  connections such as logins unlocking follow-up traffic), and
* whether any of the new traffic exposes **new validation failures**
  (the paper found none).

Follow-up destinations are modelled as post-login endpoints: once a
device's primary destination completes a genuine handshake, it contacts
a deterministic ``session.<host>`` follow-up for a subset of hosts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..devices.device import Device
from ..devices.profile import ACTIVE_EXPERIMENT_MONTH, DestinationSpec
from ..mitm.passthrough import PassthroughResponder
from ..mitm.proxy import AttackMode, InterceptionProxy
from ..testbed.cloud import month_of
from ..testbed.infrastructure import Testbed
from ..tls.engine import MemoizableResponder
from ..tls.messages import ServerResponse
from .interception import DeviceInterceptionReport, InterceptionAuditor, TABLE2_ATTACKS

__all__ = ["PassthroughOutcome", "PassthroughExperiment", "has_followup"]

#: Fraction of destinations that unlock a post-login follow-up endpoint.
#: Calibrated so the device-average share of newly-surfaced hostnames
#: under passthrough lands near the paper's ≈20.4%.
_FOLLOWUP_FRACTION = 0.29


def has_followup(hostname: str) -> bool:
    """Deterministically decide whether a destination unlocks a follow-up."""
    digest = hashlib.sha256(f"followup:{hostname}".encode()).digest()
    return digest[0] < int(256 * _FOLLOWUP_FRACTION)


def followup_hostname(hostname: str) -> str:
    return f"session.{hostname}"


@dataclass
class PassthroughOutcome:
    """Results of the passthrough re-run for one device."""

    device: str
    baseline_hostnames: set[str] = field(default_factory=set)
    passthrough_hostnames: set[str] = field(default_factory=set)
    new_validation_failures: int = 0

    @property
    def new_hostnames(self) -> set[str]:
        return self.passthrough_hostnames - self.baseline_hostnames

    @property
    def extra_fraction(self) -> float:
        if not self.baseline_hostnames:
            return 0.0
        return len(self.new_hostnames) / len(self.baseline_hostnames)


class PassthroughExperiment:
    """Re-run attacks with passthrough of previously-failed connections."""

    def __init__(self, testbed: Testbed) -> None:
        self.testbed = testbed
        self.auditor = InterceptionAuditor(testbed)
        self.toolbox = testbed.attacker()

    def _failed_hostnames(self, report: DeviceInterceptionReport) -> frozenset[str]:
        """Destinations where every attack failed (candidates to pass through)."""
        return frozenset(
            result.hostname for result in report.destinations if not result.vulnerable
        )

    def _followups_of(self, device: Device, hostnames: set[str]) -> list[DestinationSpec]:
        """Follow-up destinations unlocked by successful primary traffic."""
        followups = []
        for destination in device.profile.destinations:
            if destination.hostname in hostnames and has_followup(destination.hostname):
                followups.append(
                    DestinationSpec(
                        hostname=followup_hostname(destination.hostname),
                        instance=destination.instance,
                        server=destination.server,
                        party=destination.party,
                    )
                )
        return followups

    def run_device(self, device: Device, baseline: DeviceInterceptionReport | None = None) -> PassthroughOutcome:
        baseline = baseline or self.auditor.audit_device(device)
        outcome = PassthroughOutcome(
            device=device.name,
            baseline_hostnames={d.hostname for d in baseline.destinations},
        )
        passthrough_names = self._failed_hostnames(baseline)

        # Re-run each attack with passthrough for previously-failed hosts.
        for attack in TABLE2_ATTACKS:
            proxy = InterceptionProxy(toolbox=self.toolbox, mode=attack)
            responder = PassthroughResponder(
                attack_proxy=proxy,
                genuine=_GenuineRouter(self.testbed, device),
                passthrough_hostnames=passthrough_names,
            )
            device.power_cycle()
            connections = device.boot(lambda dest: responder, month=ACTIVE_EXPERIMENT_MONTH)
            established = {
                c.destination.hostname for c in connections if c.established
            }
            outcome.passthrough_hostnames |= {c.destination.hostname for c in connections}

            # Passed-through successes unlock follow-up endpoints, which
            # the attacker then *does* try to intercept.
            for followup in self._followups_of(device, established & passthrough_names):
                self.testbed.server_for(followup)  # materialise genuine endpoint
                connection = device.connect_destination(
                    followup, proxy, month=ACTIVE_EXPERIMENT_MONTH
                )
                outcome.passthrough_hostnames.add(followup.hostname)
                if connection.established:
                    outcome.new_validation_failures += 1
        device.power_cycle()
        return outcome

    def run_all(self) -> list[PassthroughOutcome]:
        from ..devices.catalog import active_devices

        outcomes = []
        for profile in active_devices():
            device = self.testbed.device(profile)
            outcomes.append(self.run_device(device))
        return outcomes


class _GenuineRouter(MemoizableResponder):
    """Responder that routes a hello to the genuine server by hostname."""

    def __init__(self, testbed: Testbed, device: Device) -> None:
        self._by_host = {
            destination.hostname: testbed.server_for(destination)
            for destination in device.profile.destinations
        }

    def respond(self, client_hello, *, when):
        return self.replay(client_hello, self.answer(client_hello, when=when), when=when)

    def memo_key(self, when):
        # Every server's answer reads the epoch in effect, a function of
        # the month.
        return month_of(when)

    def answer(self, client_hello, *, when):
        server = self._by_host.get(client_hello.server_name or "")
        if server is None:
            return ServerResponse(incomplete=True)
        return server.answer(client_hello, when=when)

    def replay(self, client_hello, response, *, when):
        server = self._by_host.get(client_hello.server_name or "")
        return response if server is None else server.replay(client_hello, response, when=when)
