"""Attacker certificate forging toolbox.

Everything an on-path attacker without CA compromise can present
(Table 2 of the paper, plus the spoofed-CA probe of §4.2):

* a **self-signed** certificate for the target hostname (NoValidation),
* a **valid chain for the attacker's own domain** -- the paper used a
  free ZeroSSL certificate for a domain under their control; here the
  testbed plays the public CA and issues the attacker a genuine chain
  for ``attacker-owned.example`` (WrongHostname),
* a chain whose **issuer is that (non-CA) attacker leaf**
  (InvalidBasicConstraints),
* a **spoofed CA**: a self-signed root whose Subject Name, Issuer Name
  and Serial Number match a legitimate root but whose key is the
  attacker's (the root-store probing primitive),
* an **arbitrary-subject CA** (the unknown-CA baseline probe).

The attacker holds only its own keys; the signature oracle guarantees
that spoofed chains fail verification exactly as they would with real
cryptography.

One toolbox is one attacker: like interception tooling, it forges each
hostname's credentials once and keeps them, and it answers a ClientHello
it has already answered from what it negotiated the first time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable

from ..pki.certificate import (
    BasicConstraints,
    Certificate,
    CertificateAuthority,
    CertificateBuilder,
    KeyUsage,
)
from ..pki.name import DistinguishedName
from ..pki.simcrypto import KeyPair, PublicKey, generate_keypair
from ..tls.ciphersuites import REGISTRY
from ..tls.engine import negotiate
from ..tls.messages import ClientHello, ServerHello
from ..tls.versions import ProtocolVersion

__all__ = ["AttackerToolbox", "ATTACKER_DOMAIN"]

ATTACKER_DOMAIN = "attacker-owned.example"

#: Everything an attacker's TLS stack can negotiate (all legacy + 1.3).
ATTACKER_VERSIONS = frozenset(
    {
        ProtocolVersion.SSL_3_0,
        ProtocolVersion.TLS_1_0,
        ProtocolVersion.TLS_1_1,
        ProtocolVersion.TLS_1_2,
        ProtocolVersion.TLS_1_3,
    }
)
ATTACKER_CIPHERS = tuple(sorted(REGISTRY))

_Forge = Callable[["AttackerToolbox", str], tuple[Certificate, ...]]


def _per_hostname(forge: _Forge) -> _Forge:
    """Forge a credential once per toolbox and hostname, then keep it."""

    @wraps(forge)
    def cached(self: "AttackerToolbox", hostname: str) -> tuple[Certificate, ...]:
        key = (forge.__name__, hostname)
        chain = self._chains.get(key)
        if chain is None:
            chain = self._chains[key] = forge(self, hostname)
        return chain

    return cached


@dataclass
class AttackerToolbox:
    """Forged-credential factory bound to one attacker identity.

    ``issuing_ca`` is the public CA the attacker legitimately obtained a
    certificate from (it must chain to a root the victim trusts for the
    WrongHostname / InvalidBasicConstraints attacks to be meaningful).
    """

    issuing_ca: CertificateAuthority

    def __post_init__(self) -> None:
        self._keypair: KeyPair = generate_keypair(seed=b"attacker-toolbox")
        #: id(target root) -> (target root, its spoofed copy).  A probe
        #: campaign spoofs the same few hundred roots over and over; the
        #: entry holds the target, so its id is not reused while cached.
        self._spoofed_roots: dict[int, tuple[Certificate, Certificate]] = {}
        #: (credential, hostname) -> forged chain, for every credential but
        #: the spoofed CA's (whose chain depends on the target root too).
        self._chains: dict[tuple[str, str], tuple[Certificate, ...]] = {}
        #: hostname -> the key of the leaf under every spoofed root.
        self._spoof_leaf_keys: dict[str, PublicKey] = {}
        #: id(hello) -> (hello, what the attacker negotiates for it).  The
        #: entry holds the hello, so its id is not reused while cached.
        self._negotiated: dict[int, tuple[ClientHello, ServerHello | None]] = {}
        # The attacker's genuine certificate for its own domain, with the
        # full chain linking to a trusted root (sent during handshake).
        self._own_leaf, self._own_keypair = self.issuing_ca.issue_leaf(
            ATTACKER_DOMAIN, seed=b"attacker-own-leaf"
        )
        self._own_chain = (self._own_leaf, self.issuing_ca.certificate)

    def negotiated(self, client_hello: ClientHello) -> ServerHello | None:
        """What the attacker's stack negotiates for ``client_hello``."""
        entry = self._negotiated.get(id(client_hello))
        if entry is None:
            server_hello = negotiate(client_hello, ATTACKER_VERSIONS, ATTACKER_CIPHERS)
            entry = self._negotiated[id(client_hello)] = (client_hello, server_hello)
        return entry[1]

    # ------------------------------------------------------------------
    # Table 2 attack credentials
    # ------------------------------------------------------------------
    @_per_hostname
    def self_signed_for(self, hostname: str) -> tuple[Certificate, ...]:
        """NoValidation: a self-signed certificate for the target name."""
        certificate, _ = CertificateAuthority.self_signed_leaf(
            hostname, seed=f"selfsigned:{hostname}".encode()
        )
        return (certificate,)

    def wrong_hostname_chain(self) -> tuple[Certificate, ...]:
        """WrongHostname: the attacker's *valid* chain for its own domain."""
        return self._own_chain

    @_per_hostname
    def invalid_basic_constraints_chain(self, hostname: str) -> tuple[Certificate, ...]:
        """InvalidBasicConstraints: the attacker's leaf used as an issuer.

        The attacker signs a certificate for the *target* hostname with
        the private key of its own (non-CA) leaf certificate.  Clients
        that skip the BasicConstraints check accept the chain: every
        signature verifies and the hostname matches.
        """
        builder = CertificateBuilder(
            subject=DistinguishedName(common_name=hostname),
            issuer=self._own_leaf.subject,
            public_key=generate_keypair(seed=f"ibc-leaf:{hostname}".encode()).public,
            subject_alt_names=(hostname,),
            not_before=self._own_leaf.not_before,
            not_after=self._own_leaf.not_after,
        )
        forged_leaf = builder.sign(self._own_keypair.private)
        return (forged_leaf, self._own_leaf, self.issuing_ca.certificate)

    # ------------------------------------------------------------------
    # Root-store probing credentials (§4.2)
    # ------------------------------------------------------------------
    def spoofed_ca_chain(
        self, target_root: Certificate, hostname: str
    ) -> tuple[Certificate, ...]:
        """A chain under a spoofed copy of ``target_root``.

        Subject, issuer and serial match the legitimate root; the key is
        the attacker's, so the leaf signature cannot verify against the
        *trusted* root's key.  A validating client that has the root
        fails with a signature error; one that lacks it fails with an
        unknown-CA error -- the observable side channel.
        """
        entry = self._spoofed_roots.get(id(target_root))
        if entry is None:
            # The spoof copies the target's serial, so signing it draws
            # nothing from the serial counter; each leaf below it draws one.
            spoofed = CertificateBuilder.spoof_from(
                target_root, self._keypair.public
            ).sign(self._keypair.private)
            entry = self._spoofed_roots[id(target_root)] = (target_root, spoofed)
        spoofed_root = entry[1]
        leaf_key = self._spoof_leaf_keys.get(hostname)
        if leaf_key is None:
            leaf_key = self._spoof_leaf_keys[hostname] = generate_keypair(
                seed=f"spoof-leaf:{hostname}".encode()
            ).public
        leaf = CertificateBuilder(
            subject=DistinguishedName(common_name=hostname),
            issuer=spoofed_root.subject,
            public_key=leaf_key,
            subject_alt_names=(hostname,),
            not_before=target_root.not_before,
            not_after=target_root.not_after,
        ).sign(self._keypair.private)
        return (leaf, spoofed_root)

    @_per_hostname
    def unknown_ca_chain(self, hostname: str) -> tuple[Certificate, ...]:
        """A chain under a self-signed root with an arbitrary subject."""
        root = _arbitrary_root(self._keypair)
        leaf = CertificateBuilder(
            subject=DistinguishedName(common_name=hostname),
            issuer=root.subject,
            public_key=generate_keypair(seed=f"unk-leaf:{hostname}".encode()).public,
            subject_alt_names=(hostname,),
        ).sign(self._keypair.private)
        return (leaf, root)


@lru_cache(maxsize=8)
def _arbitrary_root(keypair: KeyPair) -> Certificate:
    return CertificateBuilder(
        subject=DistinguishedName(
            common_name="IoTLS Probe Arbitrary Root", organization="IoTLS Reproduction"
        ),
        public_key=keypair.public,
        basic_constraints=BasicConstraints(ca=True),
        key_usage=KeyUsage(key_cert_sign=True),
    ).sign(keypair.private)
