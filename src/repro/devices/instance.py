"""TLS instances: the unit of TLS behaviour inside a device.

The paper defines a *TLS instance* as a TLS implementation plus its
configuration, which together produce one fingerprint.  Devices host one
or more instances (14/32 devices showed multiple fingerprints); each
destination a device contacts is wired to one instance.

:class:`TLSInstanceSpec` is the declarative description (library, a
*timeline* of configurations so longitudinal upgrades can be expressed,
validation policy, fallback policy).  :class:`TLSInstance` is the runtime
object bound to a device's root store; it performs handshakes, applies
fallback-on-failure retries, and implements failure-triggered validation
disabling (the Yi Camera behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from datetime import datetime

from ..pki.revocation import RevocationMethod
from ..pki.store import RootStore
from ..tls.engine import (
    HandshakeMemo,
    HandshakeResult,
    HandshakeState,
    Responder,
    perform_handshake,
)
from ..tls.extensions import NamedGroup, SignatureScheme
from ..tls.versions import ProtocolVersion
from ..tlslib.library import ClientConfig, LibraryClient, TLSLibrary
from .policies import FallbackPolicy, FallbackTrigger, ValidationMode, ValidationPolicy

__all__ = ["InstanceConfigSpec", "TLSInstanceSpec", "TLSInstance", "ConnectionAttempt"]


def epoch_position(timeline: tuple[tuple[int, object], ...], month: int) -> int:
    """Index of the ``(start month, epoch)`` entry in effect during ``month``:
    the last one starting at or before it, clamped to the first."""
    position = 0
    for index, (epoch_month, _) in enumerate(timeline):
        if month < epoch_month:
            break
        position = index
    return position


@dataclass(frozen=True)
class InstanceConfigSpec:
    """One configuration epoch of an instance (cipher/version offers)."""

    versions: tuple[ProtocolVersion, ...]
    cipher_codes: tuple[int, ...]
    request_ocsp_staple: bool = False
    session_tickets: bool = False
    alpn: tuple[str, ...] = ()
    #: Default revocation-checking method for this configuration; the
    #: owning device's Table 8 behaviour can override at runtime.
    revocation_method: RevocationMethod = RevocationMethod.NONE
    signature_schemes: tuple[SignatureScheme, ...] = (
        SignatureScheme.RSA_PKCS1_SHA256,
        SignatureScheme.ECDSA_SECP256R1_SHA256,
        SignatureScheme.RSA_PKCS1_SHA1,
    )
    groups: tuple[NamedGroup, ...] = (NamedGroup.X25519, NamedGroup.SECP256R1)


@dataclass(frozen=True)
class TLSInstanceSpec:
    """Declarative description of one TLS instance.

    ``timeline`` maps study-month indices (0 = January 2018) to
    configuration epochs; the entry with the largest month ``<= month``
    is in effect.  A single-entry timeline is a static instance.
    """

    name: str
    library: TLSLibrary
    timeline: tuple[tuple[int, InstanceConfigSpec], ...]
    validation: ValidationPolicy = ValidationPolicy()
    fallback: FallbackPolicy | None = None

    def __post_init__(self) -> None:
        if not self.timeline:
            raise ValueError(f"instance {self.name!r} needs at least one config epoch")
        months = [month for month, _ in self.timeline]
        if months != sorted(months):
            raise ValueError(f"instance {self.name!r} timeline must be sorted by month")

    def config_at(self, month: int) -> InstanceConfigSpec:
        """Configuration in effect during ``month`` (clamped at the ends)."""
        return self.timeline[epoch_position(self.timeline, month)][1]

    @staticmethod
    def static(
        name: str,
        library: TLSLibrary,
        config: InstanceConfigSpec,
        *,
        validation: ValidationPolicy = ValidationPolicy(),
        fallback: FallbackPolicy | None = None,
    ) -> "TLSInstanceSpec":
        """Convenience for instances whose configuration never changes."""
        return TLSInstanceSpec(
            name=name,
            library=library,
            timeline=((0, config),),
            validation=validation,
            fallback=fallback,
        )


@dataclass(frozen=True)
class ConnectionAttempt:
    """A device connection: the handshake attempts for one destination.

    ``attempts`` has more than one entry when a fallback retry happened;
    ``final`` is the last attempt and carries the connection's outcome.
    """

    instance_name: str
    hostname: str
    attempts: tuple[HandshakeResult, ...]
    downgraded: bool = False
    validation_was_disabled: bool = False

    @property
    def final(self) -> HandshakeResult:
        return self.attempts[-1]

    @property
    def established(self) -> bool:
        return self.final.established


class _Clients:
    """An instance's clients for one config epoch and validation state,
    valid while the root store stays at ``revision``."""

    __slots__ = ("first", "retry", "revision")

    def __init__(self, first: LibraryClient, revision: int) -> None:
        self.first = first
        #: The fallback retry's client, built on first use.
        self.retry: LibraryClient | None = None
        self.revision = revision


class TLSInstance:
    """Runtime TLS instance: spec + the owning device's root store.

    ``revocation_method`` / ``revocation_transport`` are set by the
    owning device from its Table 8 behaviour; they override the spec's
    defaults when provided.  ``handshake_memo`` is the owning testbed's
    (see :class:`~repro.tls.engine.HandshakeMemo`).

    A connection's client depends only on the config epoch in effect,
    whether validation has been disabled and the root store's revision,
    so the instance builds it (and its fallback retry's) once per
    combination and reuses it.
    """

    def __init__(
        self,
        spec: TLSInstanceSpec,
        root_store: RootStore,
        *,
        revocation_method=None,
        revocation_transport=None,
        handshake_memo: HandshakeMemo | None = None,
    ) -> None:
        self.spec = spec
        self.root_store = root_store
        self.revocation_method = revocation_method
        self.revocation_transport = revocation_transport
        self.handshake_memo = handshake_memo
        self._consecutive_failures = 0
        self._validation_disabled = False
        self._clients: dict[tuple[int, bool], _Clients] = {}

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def validation_disabled(self) -> bool:
        """Whether failure-triggered validation disabling has kicked in."""
        return self._validation_disabled

    def reset_failure_state(self) -> None:
        """Reboot semantics: failure counters reset, disablement persists
        only for the session in the Yi Camera's observed behaviour."""
        self._consecutive_failures = 0
        self._validation_disabled = False

    def client_config(self, month: int) -> ClientConfig:
        """The library :class:`ClientConfig` in effect for ``month``."""
        return self._clients_at(month).first.config

    def _clients_at(self, month: int) -> _Clients:
        position = epoch_position(self.spec.timeline, month)
        key = (position, self._validation_disabled)
        revision = self.root_store.revision
        clients = self._clients.get(key)
        if clients is None or clients.revision != revision:
            spec = self.spec.timeline[position][1]
            validation = self.spec.validation
            config = ClientConfig(
                versions=spec.versions,
                cipher_codes=spec.cipher_codes,
                root_store=self.root_store,
                validate=validation.validates and not self._validation_disabled,
                check_hostname=validation.checks_hostname,
                request_ocsp_staple=spec.request_ocsp_staple,
                session_tickets=spec.session_tickets,
                alpn=spec.alpn,
                signature_schemes=spec.signature_schemes,
                groups=spec.groups,
                revocation_method=self.revocation_method or spec.revocation_method,
                revocation_transport=self.revocation_transport,
            )
            clients = self._clients[key] = _Clients(self.spec.library.client(config), revision)
        return clients

    def connect(
        self,
        responder: Responder,
        *,
        hostname: str,
        when: datetime,
        month: int,
        application_data: tuple[str, ...] = (),
        fallback_enabled: bool = True,
    ) -> ConnectionAttempt:
        """One connection: handshake, then fallback retry on failure.

        ``fallback_enabled`` lets the calling code path (destination)
        opt out of the instance's retry-with-downgrade behaviour.
        """
        validation_was_disabled = self._validation_disabled
        clients = self._clients_at(month)
        memo = self.handshake_memo
        first = perform_handshake(
            clients.first,
            responder,
            hostname=hostname,
            when=when,
            application_data=application_data,
            memo=memo,
        )
        attempts = [first]
        downgraded = False

        trigger = self._failure_trigger(first)
        fallback = self.spec.fallback if fallback_enabled else None
        if trigger is not None and fallback is not None and fallback.triggered_by(trigger):
            if clients.retry is None:
                clients.retry = self.spec.library.client(fallback.apply(clients.first.config))
            retry = perform_handshake(
                clients.retry,
                responder,
                hostname=hostname,
                when=when,
                application_data=application_data,
                memo=memo,
            )
            attempts.append(retry)
            downgraded = True

        self._record_outcome(attempts[-1])
        return ConnectionAttempt(
            instance_name=self.name,
            hostname=hostname,
            attempts=tuple(attempts),
            downgraded=downgraded,
            validation_was_disabled=validation_was_disabled,
        )

    @staticmethod
    def _failure_trigger(result: HandshakeResult) -> FallbackTrigger | None:
        if result.state is HandshakeState.NO_RESPONSE:
            return FallbackTrigger.INCOMPLETE_HANDSHAKE
        if result.state in (HandshakeState.CLIENT_REJECTED, HandshakeState.SERVER_REJECTED):
            return FallbackTrigger.FAILED_HANDSHAKE
        return None

    def _record_outcome(self, result: HandshakeResult) -> None:
        limit = self.spec.validation.disable_after_failures
        if result.established:
            self._consecutive_failures = 0
            return
        self._consecutive_failures += 1
        if limit is not None and self._consecutive_failures >= limit:
            self._validation_disabled = True
