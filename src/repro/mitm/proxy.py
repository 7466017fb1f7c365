"""The interception proxy (the study's mitmproxy role).

:class:`InterceptionProxy` sits on-path and answers ClientHellos with
forged credentials according to an :class:`AttackMode`.  It implements
the :class:`~repro.tls.engine.Responder` protocol, so devices cannot
distinguish it from a genuine cloud server -- the paper's in-network
adversary model.

Supported modes cover Table 2 (NoValidation, WrongHostname,
InvalidBasicConstraints), the two §5.1 downgrade triggers
(IncompleteHandshake, FailedHandshake), the §4.2 root-store probes
(SpoofedCA, UnknownCA) and an old-version negotiation probe (Table 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum

from .. import telemetry as _telemetry
from ..pki.certificate import Certificate
from ..tls.engine import MemoizableResponder, negotiate
from ..tls.messages import ClientHello, ServerResponse
from ..tls.versions import ProtocolVersion
from .forge import ATTACKER_CIPHERS, AttackerToolbox

__all__ = ["AttackMode", "InterceptionProxy", "VersionProbeResponder"]

_TELEMETRY = _telemetry.get()


class AttackMode(Enum):
    """What the proxy presents in place of the genuine server."""

    NO_VALIDATION = "NoValidation"
    WRONG_HOSTNAME = "WrongHostname"
    INVALID_BASIC_CONSTRAINTS = "InvalidBasicConstraints"
    INCOMPLETE_HANDSHAKE = "IncompleteHandshake"
    FAILED_HANDSHAKE = "FailedHandshake"
    SPOOFED_CA = "SpoofedCA"
    UNKNOWN_CA = "UnknownCA"


@dataclass(frozen=True)
class InterceptionProxy(MemoizableResponder):
    """An on-path TLS interceptor.

    Its toolbox forges each hostname's chain once and keeps it, as
    interception tools keep a per-host certificate cache, so its answer
    is a pure function of the hello; logging the hello is the part
    replayed on every handshake.  A spoofed-CA chain also depends on the
    target root, so that proxy keeps its own.
    """

    toolbox: AttackerToolbox
    mode: AttackMode
    #: Target root for SPOOFED_CA mode.
    target_root: Certificate | None = None
    #: ClientHellos seen (interception tooling logs these).
    observed_hellos: list[ClientHello] = field(default_factory=list)
    _spoofed_chains: dict[str, tuple[Certificate, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def respond(self, client_hello: ClientHello, *, when: datetime) -> ServerResponse:
        return self.replay(client_hello, self.answer(client_hello, when=when), when=when)

    def answer(self, client_hello: ClientHello, *, when: datetime) -> ServerResponse:
        if self.mode is AttackMode.INCOMPLETE_HANDSHAKE:
            return ServerResponse(incomplete=True)

        chain = self._chain_for(client_hello.server_name or "unknown.host")
        server_hello = self.toolbox.negotiated(client_hello)
        if server_hello is None:
            # The attacker supports everything; reaching here means the
            # hello offered no suites we recognise.
            return ServerResponse(incomplete=True)
        return ServerResponse(server_hello=server_hello, certificate_chain=chain)

    def replay(
        self, client_hello: ClientHello, response: ServerResponse, *, when: datetime
    ) -> ServerResponse:
        self.observed_hellos.append(client_hello)
        if _TELEMETRY.enabled:
            _TELEMETRY.registry.counter(
                "iotls_interception_attempts_total",
                "ClientHellos answered by the interception proxy, by attack mode.",
            ).inc(mode=self.mode.value)
        return response

    def _chain_for(self, hostname: str) -> tuple[Certificate, ...]:
        if self.mode in (AttackMode.NO_VALIDATION, AttackMode.FAILED_HANDSHAKE):
            return self.toolbox.self_signed_for(hostname)
        if self.mode is AttackMode.WRONG_HOSTNAME:
            return self.toolbox.wrong_hostname_chain()
        if self.mode is AttackMode.INVALID_BASIC_CONSTRAINTS:
            return self.toolbox.invalid_basic_constraints_chain(hostname)
        if self.mode is AttackMode.SPOOFED_CA:
            if self.target_root is None:
                raise ValueError("SPOOFED_CA mode requires target_root")
            chain = self._spoofed_chains.get(hostname)
            if chain is None:
                chain = self._spoofed_chains[hostname] = self.toolbox.spoofed_ca_chain(
                    self.target_root, hostname
                )
            return chain
        if self.mode is AttackMode.UNKNOWN_CA:
            return self.toolbox.unknown_ca_chain(hostname)
        raise AssertionError(f"unhandled mode {self.mode}")  # pragma: no cover


@dataclass(frozen=True)
class VersionProbeResponder(MemoizableResponder):
    """A responder that negotiates at most ``version`` with valid credentials.

    Used for the Table 6 experiment: will the device *establish* a
    connection over an old protocol version when a (legitimate) server
    picks it?  The genuine server's chain is reused so certificate
    validation passes and only version acceptance is being tested.
    """

    version: ProtocolVersion
    chain: tuple[Certificate, ...]

    def respond(self, client_hello: ClientHello, *, when: datetime) -> ServerResponse:
        return self.answer(client_hello, when=when)

    def answer(self, client_hello: ClientHello, *, when: datetime) -> ServerResponse:
        server_hello = negotiate(client_hello, frozenset({self.version}), ATTACKER_CIPHERS)
        if server_hello is None:
            return ServerResponse(incomplete=True)
        return ServerResponse(server_hello=server_hello, certificate_chain=self.chain)
