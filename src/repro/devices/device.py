"""Runtime devices: profiles bound to root stores, able to connect.

A :class:`Device` materialises a :class:`~repro.devices.profile.DeviceProfile`:
it builds the ground-truth root store, instantiates every TLS instance,
and exposes the operations the experiments drive:

* :meth:`boot` -- the smart-plug power-cycle: reset per-session state and
  connect to every destination in boot order (the paper's observation
  that devices generate significant traffic when powered on),
* :meth:`connect_destination` -- one connection through the right
  instance, honouring fallback and validation-disable behaviour.

The *responder* for each connection is supplied by the caller: the real
testbed servers for benign runs, the interception proxy for attacks.
"""

from __future__ import annotations

from datetime import datetime
from typing import Callable

from ..pki.store import RootStore
from ..roothistory.universe import RootStoreUniverse, build_default_universe
from ..tls.engine import HandshakeMemo, Responder
from .instance import ConnectionAttempt, TLSInstance
from .profile import ACTIVE_EXPERIMENT_MONTH, DestinationSpec, DeviceProfile, month_to_date
from .rootstores import build_device_store

__all__ = ["Device", "DeviceConnection"]

#: Signature of the hook experiments use to choose a responder per
#: destination: ``(destination) -> Responder``.
ResponderFor = Callable[[DestinationSpec], Responder]


class DeviceConnection:
    """A connection record tying an attempt back to its device/destination."""

    __slots__ = ("device_name", "destination", "attempt")

    def __init__(
        self, device_name: str, destination: DestinationSpec, attempt: ConnectionAttempt
    ) -> None:
        self.device_name = device_name
        self.destination = destination
        self.attempt = attempt

    @property
    def established(self) -> bool:
        return self.attempt.established

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.attempt.final.state.value
        return (
            f"DeviceConnection({self.device_name!r}, {self.destination.hostname!r}, {state})"
        )


class Device:
    """A runtime device: instances + root store + boot behaviour."""

    def __init__(
        self,
        profile: DeviceProfile,
        *,
        universe: RootStoreUniverse | None = None,
        root_store: RootStore | None = None,
        revocation_transport=None,
        handshake_memo: HandshakeMemo | None = None,
    ) -> None:
        self.profile = profile
        self._universe = universe or build_default_universe()
        self.root_store = root_store or build_device_store(
            profile.name, profile.store, self._universe
        )
        self.instances: dict[str, TLSInstance] = {
            spec.name: TLSInstance(
                spec,
                self.root_store,
                revocation_method=self._revocation_method_for(spec),
                revocation_transport=revocation_transport,
                handshake_memo=handshake_memo,
            )
            for spec in profile.instances
        }

    def _revocation_method_for(self, spec):
        """Map the device's Table 8 behaviour onto one instance.

        Staple-requesting instances use stapling when the device supports
        it; otherwise the strongest out-of-band method the device uses.
        """
        from ..pki.revocation import RevocationMethod

        behavior = self.profile.revocation
        requests_staple = any(config.request_ocsp_staple for _, config in spec.timeline)
        if behavior.uses_stapling and requests_staple:
            return RevocationMethod.OCSP_STAPLING
        if behavior.uses_ocsp:
            return RevocationMethod.OCSP
        if behavior.uses_crl:
            return RevocationMethod.CRL
        return RevocationMethod.NONE

    @property
    def name(self) -> str:
        return self.profile.name

    def instance(self, name: str) -> TLSInstance:
        return self.instances[name]

    def power_cycle(self) -> None:
        """Reset per-session instance state (what a reboot clears)."""
        for instance in self.instances.values():
            instance.reset_failure_state()

    def connect_destination(
        self,
        destination: DestinationSpec,
        responder: Responder,
        *,
        month: int = ACTIVE_EXPERIMENT_MONTH,
        when: datetime | None = None,
    ) -> DeviceConnection:
        """Connect to one destination through its wired instance."""
        instance = self.instances[destination.instance]
        payload: tuple[str, ...]
        if destination.sensitive_payload is not None:
            payload = (destination.sensitive_payload,)
        else:
            payload = (f"telemetry ping from {self.name}",)
        attempt = instance.connect(
            responder,
            hostname=destination.hostname,
            when=when or month_to_date(month),
            month=month,
            application_data=payload,
            fallback_enabled=destination.fallback_enabled,
        )
        return DeviceConnection(self.name, destination, attempt)

    def boot(
        self,
        responder_for: ResponderFor,
        *,
        month: int = ACTIVE_EXPERIMENT_MONTH,
        when: datetime | None = None,
    ) -> list[DeviceConnection]:
        """Power-cycle the device and let it contact every destination.

        Destinations are contacted in catalog order, which is stable
        across reboots -- the property the root-store prober relies on
        ("devices will follow the same procedure every time they are
        rebooted").
        """
        self.power_cycle()
        connections = []
        for destination in self.profile.destinations:
            responder = responder_for(destination)
            connections.append(
                self.connect_destination(destination, responder, month=month, when=when)
            )
        return connections

    def first_destination(self) -> DestinationSpec:
        """The first destination contacted on boot (the prober's target)."""
        return self.profile.destinations[0]
