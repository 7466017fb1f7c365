"""TrafficPassthrough: selective non-interception re-runs (§4.2).

The paper's concern: attacking a connection can break device
functionality and suppress *later* connections, hiding vulnerabilities.
The mitigation (borrowed from mitmproxy's ``tls_passthrough`` example)
re-runs every experiment while passing through -- not intercepting --
any connection that previously failed under attack.

:class:`PassthroughResponder` implements the selector: hostnames on the
pass-list are answered by their genuine cloud server, everything else by
the attack proxy.  It is a memoizable responder, so a testbed's
handshake memo keeps the routed answers (and the hellos every other
responder was sent) while the pass/intercept logs and the chosen
responder's replay -- an OCSP staple exact to the handshake time --
run on every handshake.  The paper found passthrough surfaced ≈20.4%
more destinations (likely post-login follow-up traffic) but no new
certificate-validation failures; the follow-up mechanism is modelled in
:mod:`repro.core.passthrough`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Hashable

from ..testbed.cloud import month_of
from ..tls.engine import MemoizableResponder
from ..tls.messages import ClientHello, ServerResponse

__all__ = ["PassthroughResponder"]


@dataclass
class PassthroughResponder(MemoizableResponder):
    """Route hellos to the genuine server or the attack proxy by SNI."""

    attack_proxy: MemoizableResponder
    genuine: MemoizableResponder
    passthrough_hostnames: frozenset[str]
    passed_through: list[str] = field(default_factory=list)
    intercepted: list[str] = field(default_factory=list)

    def _route(self, client_hello: ClientHello) -> MemoizableResponder:
        if (client_hello.server_name or "") in self.passthrough_hostnames:
            return self.genuine
        return self.attack_proxy

    def respond(self, client_hello: ClientHello, *, when: datetime) -> ServerResponse:
        return self.replay(client_hello, self.answer(client_hello, when=when), when=when)

    def memo_key(self, when: datetime) -> Hashable:
        # A genuine server's answer reads the epoch in effect, a function
        # of the month; the proxy's reads nothing of the time.
        return month_of(when)

    def answer(self, client_hello: ClientHello, *, when: datetime) -> ServerResponse:
        return self._route(client_hello).answer(client_hello, when=when)

    def replay(
        self, client_hello: ClientHello, response: ServerResponse, *, when: datetime
    ) -> ServerResponse:
        responder = self._route(client_hello)
        hostname = client_hello.server_name or ""
        if responder is self.genuine:
            self.passed_through.append(hostname)
        else:
            self.intercepted.append(hostname)
        return responder.replay(client_hello, response, when=when)
