"""The TLS handshake engine: negotiation between a client and a responder.

The engine is deliberately symmetric about who the "server" is: a
*responder* is anything that turns a ClientHello into a
:class:`~repro.tls.messages.ServerResponse`.  Genuine cloud servers
(:mod:`repro.testbed.servers`) and the interception proxy
(:mod:`repro.mitm`) both implement the interface, so device code cannot
tell them apart -- exactly the on-path attacker model of the paper.

Client behaviour (hello shaping, certificate evaluation, alert choice,
fallback-on-failure) is supplied by :class:`ClientBehavior`
implementations; the simulated libraries in :mod:`repro.tlslib` are the
concrete ones.

Most of a handshake is pure: the same client configuration, hostname,
server epoch and validity-window position always give the same hello,
answer and verdict.  A :class:`HandshakeMemo` (one per testbed) keeps
that pure work, and every logical handshake still replays the stateful
steps (OCSP staples, revocation fetches, proxy logs, counters).
"""

from __future__ import annotations

import abc
import weakref
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from time import perf_counter
from typing import Hashable, Protocol, runtime_checkable

from .. import telemetry as _telemetry
from ..pki.validation import ValidationResult
from .alerts import Alert, AlertDescription
from .ciphersuites import REGISTRY
from .messages import ClientHello, ServerHello, ServerResponse
from .versions import ProtocolVersion, versions_between

_LOWEST_VERSION = min(ProtocolVersion)

__all__ = [
    "HandshakeState",
    "ClientVerdict",
    "HandshakeResult",
    "Responder",
    "ClientBehavior",
    "negotiate",
    "perform_handshake",
    "HandshakeMemo",
    "MemoizableResponder",
]


class HandshakeState(Enum):
    """Terminal state of a handshake attempt."""

    ESTABLISHED = "established"
    CLIENT_REJECTED = "client_rejected"  # client refused the server's credentials
    SERVER_REJECTED = "server_rejected"  # server sent an alert (e.g. no overlap)
    NO_RESPONSE = "no_response"  # IncompleteHandshake: silence after ClientHello


@dataclass(frozen=True)
class ClientVerdict:
    """A client's decision about a server response."""

    accept: bool
    validation: ValidationResult | None = None
    alert: Alert | None = None


@runtime_checkable
class Responder(Protocol):
    """Anything that answers ClientHellos (a server or an interceptor)."""

    def respond(self, client_hello: ClientHello, *, when: datetime) -> ServerResponse: ...


class MemoizableResponder(abc.ABC):
    """A responder whose answer splits into pure work and a stateful tail.

    Implementations define ``respond`` as ``replay(hello, answer(hello,
    when=when), when=when)`` and must not change what ``answer`` reads
    after construction.  A :class:`HandshakeMemo` calls the halves
    itself: ``answer`` once per responder, ClientHello and
    ``memo_key(when)``, ``replay`` on every handshake.
    """

    def memo_key(self, when: datetime) -> Hashable:
        """What :meth:`answer` reads of the handshake time (None: nothing)."""
        return None

    @abc.abstractmethod
    def answer(self, client_hello: ClientHello, *, when: datetime) -> ServerResponse:
        """The pure answer: a function of the hello and :meth:`memo_key`."""

    def replay(
        self, client_hello: ClientHello, response: ServerResponse, *, when: datetime
    ) -> ServerResponse:
        """The side effects of answering, and any time-exact part of the
        response (an OCSP staple).  It must not change what a client's
        :meth:`ClientBehavior.assess` reads.  The default has neither."""
        return response


class ClientBehavior(abc.ABC):
    """Pluggable client-side behaviour (one per simulated TLS library)."""

    @abc.abstractmethod
    def build_client_hello(self, hostname: str | None) -> ClientHello:
        """Shape the ClientHello for a connection to ``hostname``."""

    @abc.abstractmethod
    def evaluate_response(
        self, response: ServerResponse, *, hostname: str | None, when: datetime
    ) -> ClientVerdict:
        """Validate the server's credentials and pick an alert on failure."""

    def memo_key(self) -> Hashable | None:
        """Everything the hello and :meth:`assess` read besides the hostname,
        the response and the handshake time, or None (never memoised).

        A client with a key must implement :meth:`assess` and
        :meth:`settle` so that ``evaluate_response`` is
        ``settle(assess(...), response)``.
        """
        return None

    def assess(
        self, response: ServerResponse, *, hostname: str | None, when: datetime
    ) -> ClientVerdict:
        """The pure part of :meth:`evaluate_response`.

        It may read ``when`` only through where it falls in each presented
        certificate's validity window.
        """
        raise NotImplementedError

    def settle(self, verdict: ClientVerdict, response: ServerResponse) -> ClientVerdict:
        """The stateful tail of :meth:`evaluate_response`, run on every handshake."""
        return verdict


@dataclass(frozen=True)
class HandshakeResult:
    """Complete record of one handshake attempt (the unit of analysis).

    Every table and figure in the paper is computed from collections of
    these records (plus timestamps and device attribution added by the
    capture layer).
    """

    client_hello: ClientHello
    response: ServerResponse | None
    state: HandshakeState
    hostname: str | None
    when: datetime
    verdict: ClientVerdict | None = None
    application_data: tuple[str, ...] = ()

    @property
    def established(self) -> bool:
        return self.state is HandshakeState.ESTABLISHED

    @property
    def established_version(self) -> ProtocolVersion | None:
        if self.established and self.response and self.response.server_hello:
            return self.response.server_hello.version
        return None

    @property
    def established_cipher_code(self) -> int | None:
        if self.established and self.response and self.response.server_hello:
            return self.response.server_hello.cipher_code
        return None

    @property
    def client_alert(self) -> Alert | None:
        return self.verdict.alert if self.verdict else None


def negotiate(
    client_hello: ClientHello,
    server_versions: frozenset[ProtocolVersion],
    server_cipher_codes: tuple[int, ...],
    *,
    honor_fallback_scsv: bool = False,
) -> ServerHello | None:
    """Standard server-side negotiation.

    Chooses the highest protocol version supported by both sides, then
    the first server-preferred ciphersuite the client offered that is
    usable at that version.  Returns ``None`` when no common parameters
    exist (the server should then send ``handshake_failure``).

    With ``honor_fallback_scsv`` (RFC 7507), a hello carrying
    TLS_FALLBACK_SCSV whose maximum version is below the server's best
    is refused (``None``; the server should send
    ``inappropriate_fallback``) -- blocking downgrade-by-retry.
    """
    advertised = client_hello.advertised_versions()
    if honor_fallback_scsv and _carries_fallback_scsv(client_hello):
        if max(server_versions) > advertised[0]:
            return None
    if ProtocolVersion.TLS_1_3 in advertised:
        client_versions = frozenset(advertised)
    else:
        # Pre-1.3 clients implicitly accept versions below their maximum.
        client_versions = versions_between(_LOWEST_VERSION, advertised[0])
    common = client_versions & server_versions
    if not common:
        return None
    version = max(common)

    offered = set(client_hello.cipher_codes)
    for code in server_cipher_codes:
        if code not in offered or code not in REGISTRY:
            continue
        suite = REGISTRY[code]
        if version is ProtocolVersion.TLS_1_3 and not suite.tls13_only:
            continue
        if version is not ProtocolVersion.TLS_1_3 and suite.tls13_only:
            continue
        return ServerHello(version=version, cipher_code=code)
    return None


#: Shared runtime; mutated in place by :func:`repro.telemetry.configure`,
#: so caching it at import keeps the disabled fast path to one attribute
#: read per handshake.
_TELEMETRY = _telemetry.get()


def perform_handshake(
    client: ClientBehavior,
    responder: Responder,
    *,
    hostname: str | None,
    when: datetime,
    application_data: tuple[str, ...] = (),
    memo: "HandshakeMemo | None" = None,
) -> HandshakeResult:
    """Run one handshake attempt between a client behaviour and a responder.

    ``application_data`` is what the client would transmit after a
    successful handshake; it surfaces in the result only when the
    handshake establishes, which is how the interception experiments
    recover plaintext from vulnerable devices.

    ``memo`` is the owning testbed's :class:`HandshakeMemo`.  The result
    is the same with or without it; it only skips pure work already done.
    """
    if not _TELEMETRY.enabled:
        return _perform_handshake(client, responder, hostname, when, application_data, memo)
    started = perf_counter()
    result = _perform_handshake(client, responder, hostname, when, application_data, memo)
    elapsed = perf_counter() - started
    registry = _TELEMETRY.registry
    registry.histogram(
        "iotls_handshake_seconds", "Wall time per handshake attempt."
    ).observe(elapsed)
    registry.counter(
        "iotls_handshakes_total", "Handshake attempts by terminal state."
    ).inc(state=result.state.value)
    if result.established and result.established_version is not None:
        registry.counter(
            "iotls_negotiated_versions_total",
            "Established handshakes by negotiated protocol version.",
        ).inc(version=result.established_version.label)
    alerts = registry.counter(
        "iotls_handshake_alerts_total", "TLS alerts observed on the wire, by sender."
    )
    if result.response is not None and result.response.alert is not None:
        alerts.inc(sender="server", description=result.response.alert.description.name.lower())
    if result.client_alert is not None:
        alerts.inc(sender="client", description=result.client_alert.description.name.lower())
    return result


def _perform_handshake(
    client: ClientBehavior,
    responder: Responder,
    hostname: str | None,
    when: datetime,
    application_data: tuple[str, ...],
    memo: "HandshakeMemo | None",
) -> HandshakeResult:
    if (
        memo is not None
        and isinstance(responder, MemoizableResponder)
        and (client_key := client.memo_key()) is not None
    ):
        return memo.handshake(client, client_key, responder, hostname, when, application_data)
    return _handshake_unmemoised(client, responder, hostname, when, application_data)


def _handshake_unmemoised(
    client: ClientBehavior,
    responder: Responder,
    hostname: str | None,
    when: datetime,
    application_data: tuple[str, ...],
) -> HandshakeResult:
    client_hello = client.build_client_hello(hostname)
    response = responder.respond(client_hello, when=when)
    verdict = None
    if _reaches_client(response):
        verdict = client.evaluate_response(response, hostname=hostname, when=when)
    return _result(client_hello, response, verdict, hostname, when, application_data)


def _reaches_client(response: ServerResponse) -> bool:
    """Whether the client gets credentials to evaluate (no silence, no alert)."""
    return not response.incomplete and response.alert is None and response.server_hello is not None


def _result(
    client_hello: ClientHello,
    response: ServerResponse,
    verdict: ClientVerdict | None,
    hostname: str | None,
    when: datetime,
    application_data: tuple[str, ...],
) -> HandshakeResult:
    if response.incomplete:
        state = HandshakeState.NO_RESPONSE
    elif verdict is None:
        state = HandshakeState.SERVER_REJECTED
    elif not verdict.accept:
        state = HandshakeState.CLIENT_REJECTED
    else:
        state = HandshakeState.ESTABLISHED
    return HandshakeResult(
        client_hello=client_hello,
        response=response,
        state=state,
        hostname=hostname,
        when=when,
        verdict=verdict,
        # Plaintext reaches the wire only over an established session.
        application_data=application_data if state is HandshakeState.ESTABLISHED else (),
    )


class _Answer:
    """One memoised hello and pure answer, with verdicts by validity position."""

    __slots__ = ("client_hello", "response", "verdicts")

    def __init__(self, client_hello: ClientHello, response: ServerResponse) -> None:
        self.client_hello = client_hello
        self.response = response
        self.verdicts: dict[tuple[int, ...], ClientVerdict] = {}


def _forget(memo: "weakref.ref[HandshakeMemo]", key: int) -> None:
    alive = memo()
    if alive is not None:
        alive._responders.pop(key, None)


class HandshakeMemo:
    """The pure handshake work one testbed has already done.

    An entry is keyed by the client's :meth:`~ClientBehavior.memo_key`
    (library, hello and validation settings, root store and its
    revision), the hostname and the responder's
    :meth:`~MemoizableResponder.memo_key` at the handshake time (for a
    cloud server, the position of the epoch in effect that month).  It
    holds the ClientHello, the pure answer and the client's pure
    verdicts, the latter keyed by where the handshake time falls in each
    presented certificate's validity window (before, inside, after): the
    only way time enters a verdict.

    Entries are grouped by responder and dropped when the responder
    dies, so a discarded interception proxy's answers do not outlive it.
    A ClientHello reads only the client key and the hostname, so hellos
    are kept once per that pair, across responders: a fresh proxy per
    probe reuses the hello every earlier proxy was sent.  The memo
    itself lives on the :class:`~repro.testbed.Testbed`.
    """

    __slots__ = ("_responders", "_hellos", "__weakref__")

    def __init__(self) -> None:
        self._responders: dict[int, tuple[dict[Hashable, _Answer], weakref.ref]] = {}
        self._hellos: dict[tuple[Hashable, str | None], ClientHello] = {}

    def __len__(self) -> int:
        return sum(len(answers) for answers, _ in self._responders.values())

    def _answers(self, responder: MemoizableResponder) -> dict[Hashable, _Answer]:
        key = id(responder)
        slot = self._responders.get(key)
        if slot is None:
            # The callback runs while the responder is being freed, before
            # its id can be reused.  It holds the memo weakly, so the memo
            # is freed by reference counting alone.
            memo = weakref.ref(self)
            slot = self._responders[key] = (
                {},
                weakref.ref(responder, lambda _: _forget(memo, key)),
            )
        return slot[0]

    def handshake(
        self,
        client: ClientBehavior,
        client_key: Hashable,
        responder: MemoizableResponder,
        hostname: str | None,
        when: datetime,
        application_data: tuple[str, ...],
    ) -> HandshakeResult:
        """One logical handshake: pure work from the memo when it is there,
        the responder's replay and the client's settle always."""
        answers = self._answers(responder)
        key = (client_key, hostname, responder.memo_key(when))
        entry = answers.get(key)
        if entry is None:
            hello_key = (client_key, hostname)
            client_hello = self._hellos.get(hello_key)
            if client_hello is None:
                client_hello = self._hellos[hello_key] = client.build_client_hello(hostname)
            entry = answers[key] = _Answer(
                client_hello, responder.answer(client_hello, when=when)
            )
        client_hello = entry.client_hello
        response = responder.replay(client_hello, entry.response, when=when)
        verdict = None
        if _reaches_client(response):
            position = tuple(
                0 if when < certificate.not_before else 2 if when > certificate.not_after else 1
                for certificate in response.certificate_chain
            )
            verdict = entry.verdicts.get(position)
            if verdict is None:
                verdict = entry.verdicts[position] = client.assess(
                    response, hostname=hostname, when=when
                )
            verdict = client.settle(verdict, response)
        return _result(client_hello, response, verdict, hostname, when, application_data)


def handshake_failure_response() -> ServerResponse:
    """Convenience: the response a server sends when negotiation fails."""
    return ServerResponse(alert=Alert.fatal(AlertDescription.HANDSHAKE_FAILURE))


def _carries_fallback_scsv(client_hello: ClientHello) -> bool:
    from .ciphersuites import TLS_FALLBACK_SCSV

    return TLS_FALLBACK_SCSV in client_hello.cipher_codes
