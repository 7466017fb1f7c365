"""Cloud servers: the genuine destination endpoints devices talk to.

Each :class:`CloudServer` realises one destination's
:class:`~repro.devices.profile.ServerSpec`: it owns a certificate chain
anchored at one of the testbed's designated anchor CAs (real members of
every device's root store), negotiates per the epoch in effect at the
connection's month, and staples OCSP responses when both sides support
stapling.

Server behaviour is intentionally *worse* than many clients' (RSA-first
preference, old-version-only appliance clouds): a headline finding of
the paper is that connection security is often limited by the server
side.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

from ..devices.instance import epoch_position
from ..devices.profile import ServerSpec
from ..pki.certificate import Certificate, CertificateAuthority
from ..pki.revocation import RevocationRegistry
from ..pki.simcrypto import KeyPair
from ..tls.ciphersuites import TLS_FALLBACK_SCSV
from ..tls.engine import MemoizableResponder, negotiate
from ..tls.messages import ClientHello, ServerResponse
from ..tls.alerts import Alert, AlertDescription

__all__ = ["CloudServer", "month_of"]


def month_of(when: datetime) -> int:
    """Study-month index (0 = January 2018) of a datetime."""
    return (when.year - 2018) * 12 + when.month - 1


@dataclass(frozen=True)
class CloudServer(MemoizableResponder):
    """One genuine TLS endpoint.

    Frozen: its answers depend only on the hello and the epoch in effect,
    which is what lets the testbed's handshake memo key them that way.
    """

    hostname: str
    spec: ServerSpec
    chain: tuple[Certificate, ...]  # leaf first, then intermediate
    leaf_keypair: KeyPair
    registry: RevocationRegistry

    def respond(self, client_hello: ClientHello, *, when: datetime) -> ServerResponse:
        """Answer a ClientHello per the epoch in effect at ``when``."""
        return self.replay(client_hello, self.answer(client_hello, when=when), when=when)

    def memo_key(self, when: datetime) -> int:
        """Position in ``spec.timeline`` of the epoch in effect at ``when``.

        The memo groups entries per responder, so the position names the
        epoch, and an int hashes in C where a ``ServerEpoch`` does not.
        """
        return epoch_position(self.spec.timeline, month_of(when))

    def answer(self, client_hello: ClientHello, *, when: datetime) -> ServerResponse:
        """Negotiate per the epoch; the staple is left to :meth:`replay`."""
        epoch = self.spec.timeline[self.memo_key(when)][1]
        server_hello = negotiate(
            client_hello,
            frozenset(epoch.versions),
            epoch.cipher_codes,
            honor_fallback_scsv=self.spec.honor_fallback_scsv,
        )
        if server_hello is None:
            description = AlertDescription.HANDSHAKE_FAILURE
            if (
                self.spec.honor_fallback_scsv
                and TLS_FALLBACK_SCSV in client_hello.cipher_codes
            ):
                description = AlertDescription.INAPPROPRIATE_FALLBACK
            return ServerResponse(alert=Alert.fatal(description))
        return ServerResponse(server_hello=server_hello, certificate_chain=self.chain)

    def replay(
        self, client_hello: ClientHello, response: ServerResponse, *, when: datetime
    ) -> ServerResponse:
        """Staple a fresh OCSP response when both sides support stapling."""
        if (
            response.server_hello is None
            or not self.spec.supports_stapling
            or not client_hello.requests_ocsp_staple
        ):
            return response
        return ServerResponse(
            server_hello=response.server_hello,
            certificate_chain=response.certificate_chain,
            ocsp_staple=self.registry.staple_for(self.chain[0], when=when),
        )

    @classmethod
    def build(
        cls,
        hostname: str,
        spec: ServerSpec,
        anchor: CertificateAuthority,
        intermediate: CertificateAuthority,
        registry: RevocationRegistry,
    ) -> "CloudServer":
        """Issue the server's certificate chain under the given anchor."""
        leaf, keypair = intermediate.issue_leaf(
            hostname,
            crl_distribution_point=registry.crl_url,
            ocsp_responder_url=registry.ocsp_url,
            must_staple=spec.must_staple,
            seed=f"server:{hostname}".encode(),
        )
        return cls(
            hostname=hostname,
            spec=spec,
            chain=(leaf, intermediate.certificate),
            leaf_keypair=keypair,
            registry=registry,
        )
