"""The testbed: anchor CAs, cloud servers, smart plugs, and the gateway.

:class:`Testbed` wires everything together:

* the *anchor CAs* -- the first :data:`~repro.devices.rootstores.ANCHOR_COUNT`
  common roots of the CA universe; every device store contains them, and
  every cloud server's chain terminates at one of them (via a per-anchor
  intermediate, so presented chains have realistic depth),
* one :class:`~repro.testbed.cloud.CloudServer` per destination hostname,
  built lazily and cached,
* runtime :class:`~repro.devices.device.Device` objects, also cached,
* a :class:`~repro.testbed.capture.GatewayCapture` recording everything
  that flows through :meth:`record_connection`,
* the :class:`~repro.tls.engine.HandshakeMemo` its devices share, so
  the pure work of a repeated handshake is done once per testbed,
* one :class:`~repro.mitm.forge.AttackerToolbox`, the on-path attacker
  every active audit on the testbed shares, so each forged chain is
  forged once per testbed.
"""

from __future__ import annotations

from functools import partial

from ..devices.catalog import build_catalog
from ..devices.device import Device, DeviceConnection
from ..devices.profile import DestinationSpec, DeviceProfile
from ..devices.rootstores import anchor_records
from ..mitm.forge import AttackerToolbox
from ..pki.certificate import CertificateAuthority
from ..pki.name import DistinguishedName
from ..pki.revocation import RevocationRegistry, RevocationStatus
from ..roothistory.universe import RootStoreUniverse, build_default_universe
from ..tls.engine import HandshakeMemo, HandshakeResult
from .capture import GatewayCapture, TrafficRecord
from .cloud import CloudServer, month_of

__all__ = ["Testbed"]


class Testbed:
    """A simulated smart-home testbed with gateway capture."""

    # Not a test case, despite the name (for pytest collection).
    __test__ = False

    def __init__(self, universe: RootStoreUniverse | None = None) -> None:
        self.universe = universe or build_default_universe()
        self.capture = GatewayCapture()
        self._anchors: list[CertificateAuthority] = [
            record.authority for record in anchor_records(self.universe)
        ]
        self._intermediates: dict[int, CertificateAuthority] = {}
        self._registries: dict[int, RevocationRegistry] = {}
        self._servers: dict[str, CloudServer] = {}
        self._devices: dict[str, Device] = {}
        self._attacker: AttackerToolbox | None = None
        self.handshake_memo = HandshakeMemo()

    # ------------------------------------------------------------------
    # PKI / server infrastructure
    # ------------------------------------------------------------------
    def anchor(self, index: int) -> CertificateAuthority:
        return self._anchors[index % len(self._anchors)]

    def intermediate(self, index: int) -> CertificateAuthority:
        index %= len(self._anchors)
        if index not in self._intermediates:
            anchor = self._anchors[index]
            self._intermediates[index] = anchor.issue_intermediate(
                DistinguishedName(
                    common_name=f"{anchor.name.common_name} Intermediate CA",
                    organization=anchor.name.organization,
                ),
                seed=f"intermediate:{index}".encode(),
            )
        return self._intermediates[index]

    def registry(self, index: int) -> RevocationRegistry:
        index %= len(self._anchors)
        if index not in self._registries:
            anchor = self._anchors[index]
            self._registries[index] = RevocationRegistry(
                issuer_name=anchor.name.rfc4514(),
                crl_url=f"http://crl.anchor{index}.example/latest.crl",
                ocsp_url=f"http://ocsp.anchor{index}.example",
                signing_key=anchor.keypair.private,
            )
        return self._registries[index]

    def server_for(self, destination: DestinationSpec) -> CloudServer:
        """The (cached) genuine cloud server for a destination."""
        if destination.hostname not in self._servers:
            index = destination.server.anchor_index
            self._servers[destination.hostname] = CloudServer.build(
                destination.hostname,
                destination.server,
                self.anchor(index),
                self.intermediate(index),
                self.registry(index),
            )
        return self._servers[destination.hostname]

    def attacker(self) -> AttackerToolbox:
        """The (cached) on-path attacker, holding a genuine chain from
        anchor 0 for its own domain."""
        if self._attacker is None:
            self._attacker = AttackerToolbox(issuing_ca=self.anchor(0))
        return self._attacker

    # ------------------------------------------------------------------
    # Devices
    # ------------------------------------------------------------------
    def device(self, profile_or_name: DeviceProfile | str) -> Device:
        """The (cached) runtime device for a profile or name."""
        if isinstance(profile_or_name, str):
            profile = next(p for p in build_catalog() if p.name == profile_or_name)
        else:
            profile = profile_or_name
        if profile.name not in self._devices:
            self._devices[profile.name] = Device(
                profile,
                universe=self.universe,
                # Bound to the registries, not to the testbed: a device
                # holding the testbed would make a reference cycle, and a
                # finished run's testbed (memo included) would then wait
                # for the cyclic garbage collector.
                revocation_transport=partial(_fetch_revocation, self._registries),
                handshake_memo=self.handshake_memo,
            )
        return self._devices[profile.name]

    def revocation_transport(self, url: str, serial: int) -> RevocationStatus:
        """Device-side out-of-band revocation fetch: resolve a CRL or
        OCSP URL to the owning anchor's registry and answer for
        ``serial`` (Table 8's CRL/OCSP network signals)."""
        return _fetch_revocation(self._registries, url, serial)

    def all_devices(self) -> list[Device]:
        return [self.device(profile) for profile in build_catalog()]

    # ------------------------------------------------------------------
    # Capture plumbing
    # ------------------------------------------------------------------
    def record_connection(self, connection: DeviceConnection) -> list[TrafficRecord]:
        """Convert a device connection into gateway traffic records.

        Every handshake *attempt* is a separate wire connection (a
        fallback retry shows up as its own ClientHello, which is exactly
        how the paper's passive data sees downgrades).
        """
        records = []
        attempts = connection.attempt.attempts
        for index, result in enumerate(attempts):
            records.append(self._record_for(connection, result, downgraded=index > 0))
        for record in records:
            self.capture.add(record)
        return records

    @staticmethod
    def _record_for(
        connection: DeviceConnection, result: HandshakeResult, *, downgraded: bool
    ) -> TrafficRecord:
        alert = result.client_alert
        return TrafficRecord(
            device=connection.device_name,
            hostname=connection.destination.hostname,
            party=connection.destination.party,
            month=month_of(result.when),
            when=result.when,
            client_hello=result.client_hello,
            established=result.established,
            established_version=result.established_version,
            established_cipher_code=result.established_cipher_code,
            client_alert=alert.description.name.lower() if alert else None,
            downgraded=downgraded,
        )


def _fetch_revocation(
    registries: dict[int, RevocationRegistry], url: str, serial: int
) -> RevocationStatus:
    for registry in list(registries.values()):
        if url == registry.crl_url:
            registry.crl_fetches += 1
        elif url == registry.ocsp_url:
            registry.ocsp.queries_served += 1
        else:
            continue
        return RevocationStatus.REVOKED if registry.is_revoked(serial) else RevocationStatus.GOOD
    return RevocationStatus.UNKNOWN
