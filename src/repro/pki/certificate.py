"""Certificates and certificate authorities for the simulated PKI.

The model keeps the fields and extensions that the paper's three
interception attacks (Table 2) and the root-store probing technique
exercise:

* subject / issuer :class:`~repro.pki.name.DistinguishedName`,
* serial number (spoofed-CA probes must match it),
* validity window (deprecated-yet-*unexpired* roots are the Table 9 focus),
* ``BasicConstraints`` (the InvalidBasicConstraints attack),
* Subject Alternative Names (hostname validation / WrongHostname attack),
* revocation pointers (CRL distribution point, OCSP responder URL) and the
  ``Must-Staple`` TLS-feature extension (Table 8),
* a signature over the TBS bytes via :mod:`repro.pki.simcrypto`.

Everything is immutable; building happens through :class:`CertificateBuilder`
or the higher-level :class:`CertificateAuthority`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from datetime import datetime, timezone

from .name import DistinguishedName
from .simcrypto import KeyPair, PrivateKey, PublicKey, Signature, generate_keypair, verify

__all__ = [
    "BasicConstraints",
    "KeyUsage",
    "Certificate",
    "CertificateBuilder",
    "CertificateAuthority",
    "utc",
]


def utc(year: int, month: int = 1, day: int = 1) -> datetime:
    """Shorthand for a UTC datetime at midnight."""
    return datetime(year, month, day, tzinfo=timezone.utc)


_SERIAL_COUNTER = itertools.count(1)


@dataclass(frozen=True)
class BasicConstraints:
    """The X.509 BasicConstraints extension.

    ``ca`` is what the InvalidBasicConstraints attack abuses: a leaf
    certificate (``ca=False``) must not be accepted as a chain issuer.
    """

    ca: bool
    path_len: int | None = None


@dataclass(frozen=True)
class KeyUsage:
    """Subset of the X.509 KeyUsage extension relevant to TLS."""

    digital_signature: bool = True
    key_cert_sign: bool = False
    crl_sign: bool = False


@dataclass(frozen=True)
class Certificate:
    """An issued (signed) certificate."""

    subject: DistinguishedName
    issuer: DistinguishedName
    serial: int
    not_before: datetime
    not_after: datetime
    public_key: PublicKey
    basic_constraints: BasicConstraints
    key_usage: KeyUsage
    signature: Signature
    subject_alt_names: tuple[str, ...] = ()
    crl_distribution_point: str | None = None
    ocsp_responder_url: str | None = None
    must_staple: bool = False

    def tbs_bytes(self) -> bytes:
        """Canonical byte encoding of the to-be-signed portion.

        Any attacker modification of a signed field changes these bytes
        and therefore invalidates the signature -- the property the
        spoofed-CA probe depends on.

        Cached per instance: the encoding is a pure function of frozen
        fields, and every handshake re-verifies the same few chain
        certificates (``dataclasses.replace`` builds a new instance, so
        a copy never inherits a stale cache).
        """
        cached = self.__dict__.get("_tbs_cache")
        if cached is None:
            parts = [
                self.subject.rfc4514(),
                self.issuer.rfc4514(),
                str(self.serial),
                self.not_before.isoformat(),
                self.not_after.isoformat(),
                self.public_key.key_id,
                f"ca={self.basic_constraints.ca}",
                f"pathlen={self.basic_constraints.path_len}",
                f"ku={self.key_usage.digital_signature},{self.key_usage.key_cert_sign}",
                "|".join(self.subject_alt_names),
                self.crl_distribution_point or "",
                self.ocsp_responder_url or "",
                f"must_staple={self.must_staple}",
            ]
            cached = "\x1f".join(parts).encode()
            object.__setattr__(self, "_tbs_cache", cached)
        return cached

    @property
    def is_self_signed(self) -> bool:
        """True when issuer name equals subject name."""
        return self.subject.matches(self.issuer)

    def is_valid_at(self, when: datetime) -> bool:
        """Check the validity window (inclusive bounds, as X.509 specifies)."""
        return self.not_before <= when <= self.not_after

    def verify_signature(self, issuer_public_key: PublicKey) -> bool:
        """Verify this certificate's signature against an issuer key."""
        return verify(issuer_public_key, self.tbs_bytes(), self.signature)

    def sha256_name_serial(self) -> tuple[tuple[str, str, str, str], int]:
        """Identity tuple used by root stores: (normalised subject, serial)."""
        return (self.subject.normalized_key(), self.serial)

    def summary(self) -> str:
        """One-line human-readable description for reports."""
        kind = "CA" if self.basic_constraints.ca else "leaf"
        return (
            f"{kind} cert subject={self.subject.rfc4514()!r} "
            f"issuer={self.issuer.rfc4514()!r} serial={self.serial} "
            f"valid {self.not_before.date()}..{self.not_after.date()}"
        )


_DEFAULT_NOT_BEFORE = utc(2018)
_DEFAULT_NOT_AFTER = utc(2030)
_LEAF_CONSTRAINTS = BasicConstraints(ca=False)
_DEFAULT_KEY_USAGE = KeyUsage()
#: The placeholder a certificate carries while its TBS bytes are encoded.
_UNSIGNED = Signature(key_id="", tag="")


@dataclass
class CertificateBuilder:
    """Step-by-step construction of a certificate, then ``sign``.

    The builder is also the tool attackers use: ``spoof_from`` copies the
    *names and serial* of a target certificate without its key, producing
    exactly the probe certificate the paper's root-store technique sends.
    """

    subject: DistinguishedName | None = None
    issuer: DistinguishedName | None = None
    serial: int | None = None
    not_before: datetime = _DEFAULT_NOT_BEFORE
    not_after: datetime = _DEFAULT_NOT_AFTER
    public_key: PublicKey | None = None
    basic_constraints: BasicConstraints = _LEAF_CONSTRAINTS
    key_usage: KeyUsage = _DEFAULT_KEY_USAGE
    subject_alt_names: tuple[str, ...] = ()
    crl_distribution_point: str | None = None
    ocsp_responder_url: str | None = None
    must_staple: bool = False

    @classmethod
    def spoof_from(cls, target: Certificate, attacker_key: PublicKey) -> "CertificateBuilder":
        """Pre-fill a builder that mimics ``target``'s identity fields.

        Subject Name, Issuer Name and Serial Number all match the target
        (per §4.1 of the paper) but the key -- and hence every signature
        below it -- is the attacker's.
        """
        return cls(
            subject=target.subject,
            issuer=target.issuer,
            serial=target.serial,
            not_before=target.not_before,
            not_after=target.not_after,
            public_key=attacker_key,
            basic_constraints=target.basic_constraints,
            key_usage=target.key_usage,
            subject_alt_names=target.subject_alt_names,
        )

    def sign(self, signing_key: PrivateKey, issuer_name: DistinguishedName | None = None) -> Certificate:
        """Produce the signed certificate.

        ``issuer_name`` defaults to the builder's own ``issuer`` field, or
        to ``subject`` for self-signed certificates.
        """
        if self.subject is None:
            raise ValueError("certificate requires a subject")
        if self.public_key is None:
            raise ValueError("certificate requires a public key")
        issuer = issuer_name or self.issuer or self.subject
        serial = self.serial if self.serial is not None else next(_SERIAL_COUNTER)
        certificate = Certificate(
            subject=self.subject,
            issuer=issuer,
            serial=serial,
            not_before=self.not_before,
            not_after=self.not_after,
            public_key=self.public_key,
            basic_constraints=self.basic_constraints,
            key_usage=self.key_usage,
            signature=_UNSIGNED,
            subject_alt_names=self.subject_alt_names,
            crl_distribution_point=self.crl_distribution_point,
            ocsp_responder_url=self.ocsp_responder_url,
            must_staple=self.must_staple,
        )
        # The signature is not part of the TBS bytes, so the encoding
        # cached here stays the signed certificate's.  Nothing has seen
        # the instance yet, so setting the frozen field changes no hash.
        object.__setattr__(
            certificate, "signature", signing_key.sign(certificate.tbs_bytes())
        )
        return certificate


class CertificateAuthority:
    """A CA: a key pair plus a self-signed root (or an intermediate).

    Provides the issuing operations every substrate needs: leaf issuance
    for cloud servers, intermediate issuance for realistic chains, and the
    ``self_signed_leaf`` helper the NoValidation attack uses.
    """

    def __init__(
        self,
        name: DistinguishedName,
        *,
        not_before: datetime | None = None,
        not_after: datetime | None = None,
        seed: bytes | None = None,
        parent: "CertificateAuthority | None" = None,
    ) -> None:
        self.name = name
        self.keypair: KeyPair = generate_keypair(seed=seed)
        self.parent = parent
        builder = CertificateBuilder(
            subject=name,
            issuer=parent.name if parent else name,
            public_key=self.keypair.public,
            not_before=not_before or utc(2010),
            not_after=not_after or utc(2035),
            basic_constraints=BasicConstraints(ca=True),
            key_usage=KeyUsage(digital_signature=True, key_cert_sign=True, crl_sign=True),
        )
        signing_key = parent.keypair.private if parent else self.keypair.private
        self.certificate: Certificate = builder.sign(signing_key)

    def issue_leaf(
        self,
        hostname: str,
        *,
        extra_names: tuple[str, ...] = (),
        not_before: datetime | None = None,
        not_after: datetime | None = None,
        crl_distribution_point: str | None = None,
        ocsp_responder_url: str | None = None,
        must_staple: bool = False,
        seed: bytes | None = None,
    ) -> tuple[Certificate, KeyPair]:
        """Issue a server (leaf) certificate for ``hostname``."""
        keypair = generate_keypair(seed=seed)
        builder = CertificateBuilder(
            subject=DistinguishedName(common_name=hostname),
            issuer=self.name,
            public_key=keypair.public,
            not_before=not_before or self.certificate.not_before,
            not_after=not_after or self.certificate.not_after,
            subject_alt_names=(hostname, *extra_names),
            crl_distribution_point=crl_distribution_point,
            ocsp_responder_url=ocsp_responder_url,
            must_staple=must_staple,
        )
        return builder.sign(self.keypair.private), keypair

    def issue_intermediate(
        self, name: DistinguishedName, *, seed: bytes | None = None
    ) -> "CertificateAuthority":
        """Create a subordinate CA whose certificate this CA signs."""
        return CertificateAuthority(
            name,
            not_before=self.certificate.not_before,
            not_after=self.certificate.not_after,
            seed=seed,
            parent=self,
        )

    @staticmethod
    def self_signed_leaf(
        hostname: str, *, seed: bytes | None = None
    ) -> tuple[Certificate, KeyPair]:
        """A self-signed server certificate (the NoValidation attack tool)."""
        keypair = generate_keypair(seed=seed)
        builder = CertificateBuilder(
            subject=DistinguishedName(common_name=hostname),
            public_key=keypair.public,
            subject_alt_names=(hostname,),
        )
        return builder.sign(keypair.private), keypair
