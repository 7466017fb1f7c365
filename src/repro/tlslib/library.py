"""Simulated TLS client libraries.

A *library* bundles the two behaviours the paper's techniques key on:

1. **Alert policy** -- which TLS alert (if any) the client emits for each
   certificate-validation failure.  Table 4 of the paper measures this
   for six real libraries; the catalog (:mod:`repro.tlslib.catalog`)
   reproduces those exact behaviours.  The ``unknown_ca`` vs
   ``bad-signature`` distinction is the side channel the root-store
   prober exploits.
2. **ClientHello shaping** -- version offers, ciphersuite ordering and
   extension lists.  Two clients built from the same library with the
   same configuration produce byte-identical hellos and therefore the
   same fingerprint, which drives the Figure 5 shared-instance analysis.

A (library, configuration) pair is a *TLS instance* in the paper's
terminology; devices host one or more instances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime
from operator import attrgetter
from typing import Callable, Hashable

from ..pki.revocation import RevocationMethod, RevocationStatus
from ..pki.store import RootStore
from ..pki.validation import ValidationErrorCode, ValidationResult, validate_chain
from ..tls.alerts import Alert, AlertDescription
from ..tls.engine import ClientBehavior, ClientVerdict
from ..tls.extensions import (
    ECPointFormat,
    Extension,
    ExtensionType,
    NamedGroup,
    SignatureScheme,
    ec_point_formats_ext,
    signature_algorithms_ext,
    sni,
    status_request,
    supported_groups_ext,
    supported_versions_ext,
)
from ..tls.messages import ClientHello, ServerResponse
from ..tls.versions import ProtocolVersion, versions_between

__all__ = ["AlertPolicy", "ClientConfig", "TLSLibrary", "LibraryClient"]


@dataclass(frozen=True)
class AlertPolicy:
    """Which alert a library sends for each validation failure.

    ``None`` means the library closes the connection silently (GnuTLS and
    SecureTransport in Table 4).  ``on_unknown_ca != on_bad_signature``
    is precisely the amenability condition for root-store probing.
    """

    on_unknown_ca: AlertDescription | None
    on_bad_signature: AlertDescription | None
    on_expired: AlertDescription | None = AlertDescription.CERTIFICATE_EXPIRED
    on_hostname_mismatch: AlertDescription | None = AlertDescription.BAD_CERTIFICATE
    on_bad_constraints: AlertDescription | None = AlertDescription.BAD_CERTIFICATE
    on_other: AlertDescription | None = AlertDescription.CERTIFICATE_UNKNOWN

    def __post_init__(self) -> None:
        # Frozen, so the code -> alert table is built once per policy.
        object.__setattr__(
            self,
            "_by_code",
            {
                ValidationErrorCode.UNKNOWN_CA: self.on_unknown_ca,
                ValidationErrorCode.BAD_SIGNATURE: self.on_bad_signature,
                ValidationErrorCode.EXPIRED: self.on_expired,
                ValidationErrorCode.NOT_YET_VALID: self.on_expired,
                ValidationErrorCode.HOSTNAME_MISMATCH: self.on_hostname_mismatch,
                ValidationErrorCode.INVALID_BASIC_CONSTRAINTS: self.on_bad_constraints,
                ValidationErrorCode.PATHLEN_EXCEEDED: self.on_bad_constraints,
                ValidationErrorCode.KEY_USAGE: self.on_bad_constraints,
            },
        )

    def alert_for(self, code: ValidationErrorCode) -> AlertDescription | None:
        """Map a typed validation failure to this library's alert choice."""
        return self._by_code.get(code, self.on_other)

    @property
    def distinguishes_unknown_ca(self) -> bool:
        """True when the unknown-CA and bad-signature alerts differ --
        the amenability condition of §4.2 (root-stores analysis)."""
        return (
            self.on_unknown_ca is not None
            and self.on_bad_signature is not None
            and self.on_unknown_ca is not self.on_bad_signature
        ) or (self.on_unknown_ca is None) != (self.on_bad_signature is None)


@dataclass(frozen=True)
class ClientConfig:
    """Configuration of one TLS instance (library settings a device picks).

    ``validate`` / ``check_hostname`` are the Table 7 vulnerability knobs:
    ``validate=False`` reproduces the seven no-validation devices, and
    ``check_hostname=False`` the four Amazon-family devices.
    """

    versions: tuple[ProtocolVersion, ...]
    cipher_codes: tuple[int, ...]
    root_store: RootStore
    validate: bool = True
    check_hostname: bool = True
    check_validity: bool = True
    check_basic_constraints: bool = True
    request_ocsp_staple: bool = False
    send_sni: bool = True
    signature_schemes: tuple[SignatureScheme, ...] = (
        SignatureScheme.RSA_PKCS1_SHA256,
        SignatureScheme.ECDSA_SECP256R1_SHA256,
        SignatureScheme.RSA_PKCS1_SHA1,
    )
    groups: tuple[NamedGroup, ...] = (NamedGroup.X25519, NamedGroup.SECP256R1)
    alpn: tuple[str, ...] = ()
    session_tickets: bool = False
    #: How this instance checks certificate revocation (Table 8).  CRL
    #: and OCSP need a ``revocation_transport`` to reach the endpoints
    #: named in the certificate; stapling consults the handshake itself.
    revocation_method: RevocationMethod = RevocationMethod.NONE
    #: Out-of-band fetch: ``(url, serial) -> RevocationStatus``.  Soft-fail
    #: (accept) when None or when the fetch cannot decide -- matching
    #: deployed client behaviour.
    revocation_transport: Callable[[str, int], RevocationStatus] | None = None

    @property
    def max_version(self) -> ProtocolVersion:
        return max(self.versions)

    def downgraded(self, **changes) -> "ClientConfig":
        """A modified copy (used by device fallback policies)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class TLSLibrary:
    """A simulated TLS library: identity, alert policy, hello dialect.

    ``extension_dialect`` is an ordered tuple of extension-type names the
    library emits (beyond SNI/status_request which are config-driven);
    it is what differentiates fingerprints across libraries.
    """

    name: str
    version: str
    alert_policy: AlertPolicy
    extension_dialect: tuple[ExtensionType, ...] = (
        ExtensionType.SUPPORTED_GROUPS,
        ExtensionType.EC_POINT_FORMATS,
        ExtensionType.SIGNATURE_ALGORITHMS,
    )
    sends_alerts: bool = True

    @property
    def label(self) -> str:
        return f"{self.name} ({self.version})"

    def client(self, config: ClientConfig) -> "LibraryClient":
        """Instantiate a TLS instance: this library with ``config``."""
        return LibraryClient(library=self, config=config)


#: The :class:`ClientConfig` fields the hello and the pure verdict read.
#: The root store enters the memo key as its serial and revision; the
#: revocation fields are read only by :meth:`LibraryClient.settle`,
#: which runs on every handshake.
_MEMO_FIELDS = (
    "versions",
    "cipher_codes",
    "validate",
    "check_hostname",
    "check_validity",
    "check_basic_constraints",
    "request_ocsp_staple",
    "send_sni",
    "signature_schemes",
    "groups",
    "alpn",
    "session_tickets",
)
_memo_fields = attrgetter(*_MEMO_FIELDS)


class _StaticKey:
    """A client's library and keyed config fields, hashed once.

    Those hold frozen dataclasses and enums whose hashes run in Python,
    and the memo looks the key up on every handshake.  Equality is by
    content, so equal configs on different clients share memo entries.
    """

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: tuple) -> None:
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, _StaticKey):
            return NotImplemented
        return self._hash == other._hash and self.parts == other.parts


@dataclass(frozen=True)
class LibraryClient(ClientBehavior):
    """A concrete TLS instance (library + configuration).

    Frozen, so the static part of :meth:`memo_key` and the versions a
    server may pick are computed once.
    """

    library: TLSLibrary
    config: ClientConfig

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_static_key", _StaticKey((self.library, _memo_fields(self.config)))
        )
        object.__setattr__(self, "_acceptable", self._acceptable_versions())

    def memo_key(self) -> Hashable:
        # The store's contents can change under a live client: read them now.
        store = self.config.root_store
        return (self._static_key, store.serial, store.revision)

    # ------------------------------------------------------------------
    # ClientHello construction
    # ------------------------------------------------------------------
    def build_client_hello(self, hostname: str | None) -> ClientHello:
        config = self.config
        extensions: list[Extension] = []
        if config.send_sni and hostname:
            extensions.append(sni(hostname))
        if config.request_ocsp_staple:
            extensions.append(status_request())

        for ext_type in self.library.extension_dialect:
            if ext_type is ExtensionType.SUPPORTED_GROUPS:
                extensions.append(supported_groups_ext(config.groups))
            elif ext_type is ExtensionType.EC_POINT_FORMATS:
                extensions.append(ec_point_formats_ext((ECPointFormat.UNCOMPRESSED,)))
            elif ext_type is ExtensionType.SIGNATURE_ALGORITHMS:
                extensions.append(signature_algorithms_ext(config.signature_schemes))
            elif ext_type is ExtensionType.SESSION_TICKET:
                if config.session_tickets:
                    extensions.append(Extension(ExtensionType.SESSION_TICKET))
            elif ext_type is ExtensionType.ALPN:
                if config.alpn:
                    extensions.append(Extension(ExtensionType.ALPN, config.alpn))
            else:
                extensions.append(Extension(ext_type))

        max_version = config.max_version
        if ProtocolVersion.TLS_1_3 in config.versions:
            # RFC 8446: legacy_version pins at 1.2; real offer in extension.
            legacy = ProtocolVersion.TLS_1_2
            wire_codes = tuple(
                v.wire for v in sorted(config.versions, reverse=True)
            )
            extensions.append(supported_versions_ext(wire_codes))
        else:
            legacy = max_version

        return ClientHello(
            legacy_version=legacy,
            cipher_codes=config.cipher_codes,
            extensions=tuple(extensions),
        )

    # ------------------------------------------------------------------
    # Server-credential evaluation
    # ------------------------------------------------------------------
    def evaluate_response(
        self, response: ServerResponse, *, hostname: str | None, when: datetime
    ) -> ClientVerdict:
        return self.settle(self.assess(response, hostname=hostname, when=when), response)

    def assess(
        self, response: ServerResponse, *, hostname: str | None, when: datetime
    ) -> ClientVerdict:
        """Everything but revocation: version, cipher and chain checks."""
        config = self.config
        server_hello = response.server_hello
        if server_hello is None:
            return ClientVerdict(accept=False)

        # Refuse versions/ciphers the instance never offered; a correct
        # client does not let a ServerHello pick parameters unilaterally.
        if server_hello.version not in self._acceptable:
            return ClientVerdict(
                accept=False,
                alert=self._alert(AlertDescription.PROTOCOL_VERSION),
            )
        if server_hello.cipher_code not in config.cipher_codes:
            return ClientVerdict(
                accept=False,
                alert=self._alert(AlertDescription.ILLEGAL_PARAMETER),
            )

        if not config.validate:
            # Table 7 NoValidation devices: accept anything.
            return ClientVerdict(accept=True, validation=None)

        result = validate_chain(
            response.chain,
            config.root_store,
            when=when,
            hostname=hostname,
            check_hostname=config.check_hostname,
            check_validity=config.check_validity,
            check_basic_constraints=config.check_basic_constraints,
        )
        if result.ok:
            return ClientVerdict(accept=True, validation=result)
        return ClientVerdict(
            accept=False,
            validation=result,
            alert=self._alert_for_validation(result),
        )

    def settle(self, verdict: ClientVerdict, response: ServerResponse) -> ClientVerdict:
        """Revocation, for a chain that validated.

        Staples are issued per handshake and CRL/OCSP endpoints answer
        from live state, so this runs on every handshake.
        """
        if verdict.accept and verdict.validation is not None and self._revoked(response):
            return ClientVerdict(
                accept=False,
                validation=verdict.validation,
                alert=self._alert(AlertDescription.CERTIFICATE_REVOKED),
            )
        return verdict

    def _revoked(self, response: ServerResponse) -> bool:
        """Revocation check per the instance's Table 8 method.

        Mirrors deployed semantics: stapling trusts a presented staple
        and soft-fails when none arrives; CRL/OCSP fetch out of band via
        the URLs the leaf certificate names, soft-failing when the
        endpoint is unreachable (no transport configured).
        """
        config = self.config
        method = config.revocation_method
        if method is RevocationMethod.NONE or not response.chain:
            return False
        leaf = response.chain[0]

        if method is RevocationMethod.OCSP_STAPLING:
            staple = response.ocsp_staple
            return (
                staple is not None
                and staple.serial == leaf.serial
                and staple.status is RevocationStatus.REVOKED
            )

        transport = config.revocation_transport
        if transport is None:
            return False  # endpoint unreachable: soft-fail
        url = (
            leaf.crl_distribution_point
            if method is RevocationMethod.CRL
            else leaf.ocsp_responder_url
        )
        if not url:
            return False
        return transport(url, leaf.serial) is RevocationStatus.REVOKED

    def _acceptable_versions(self) -> frozenset[ProtocolVersion]:
        """Versions this instance will let a server choose.

        Pre-1.3 TLS semantics: offering a maximum implies accepting
        anything at or below it that the stack still compiles in; we
        model "compiled in" as the instance's configured version list
        plus everything between its min and max.
        """
        versions = self.config.versions
        if ProtocolVersion.TLS_1_3 in versions:
            return frozenset(versions)
        return versions_between(min(versions), max(versions))

    def _alert(self, description: AlertDescription | None) -> Alert | None:
        if description is None or not self.library.sends_alerts:
            return None
        return Alert.fatal(description)

    def _alert_for_validation(self, result: ValidationResult) -> Alert | None:
        return self._alert(self.library.alert_policy.alert_for(result.code))
