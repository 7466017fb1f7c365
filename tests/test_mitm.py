"""Tests for the attacker toolbox, interception proxy and passthrough."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.devices.configs import FS_MODERN, RSA_PLAIN
from repro.mitm import (
    ATTACKER_DOMAIN,
    AttackMode,
    AttackerToolbox,
    InterceptionProxy,
    PassthroughResponder,
    VersionProbeResponder,
)
from repro.pki import RootStore, ValidationErrorCode, utc, validate_chain
from repro.tls import ClientHello, ProtocolVersion, sni

WHEN = utc(2021, 3)
HOST = "victim.example.com"


@pytest.fixture()
def toolbox(simple_ca):
    return AttackerToolbox(issuing_ca=simple_ca)


@pytest.fixture()
def victim_store(simple_ca):
    return RootStore.from_certificates("victim", [simple_ca.certificate])


def _hello(hostname=HOST) -> ClientHello:
    return ClientHello(
        legacy_version=ProtocolVersion.TLS_1_2,
        cipher_codes=FS_MODERN + RSA_PLAIN,
        extensions=(sni(hostname),),
    )


class TestForgedCredentials:
    def test_self_signed_fails_as_unknown_ca(self, toolbox, victim_store):
        chain = toolbox.self_signed_for(HOST)
        result = validate_chain(list(chain), victim_store, when=WHEN, hostname=HOST)
        assert result.code is ValidationErrorCode.UNKNOWN_CA

    def test_wrong_hostname_chain_is_otherwise_valid(self, toolbox, victim_store):
        chain = toolbox.wrong_hostname_chain()
        ok_for_attacker = validate_chain(
            list(chain), victim_store, when=WHEN, hostname=ATTACKER_DOMAIN
        )
        assert ok_for_attacker.ok
        wrong = validate_chain(list(chain), victim_store, when=WHEN, hostname=HOST)
        assert wrong.code is ValidationErrorCode.HOSTNAME_MISMATCH
        relaxed = validate_chain(
            list(chain), victim_store, when=WHEN, hostname=HOST, check_hostname=False
        )
        assert relaxed.ok

    def test_invalid_basic_constraints_chain(self, toolbox, victim_store):
        chain = toolbox.invalid_basic_constraints_chain(HOST)
        strict = validate_chain(list(chain), victim_store, when=WHEN, hostname=HOST)
        assert strict.code is ValidationErrorCode.INVALID_BASIC_CONSTRAINTS
        relaxed = validate_chain(
            list(chain),
            victim_store,
            when=WHEN,
            hostname=HOST,
            check_basic_constraints=False,
        )
        assert relaxed.ok  # hostname matches; only the CA bit is wrong

    def test_spoofed_ca_triggers_bad_signature(self, toolbox, victim_store, simple_ca):
        chain = toolbox.spoofed_ca_chain(simple_ca.certificate, HOST)
        result = validate_chain(list(chain), victim_store, when=WHEN, hostname=HOST)
        assert result.code is ValidationErrorCode.BAD_SIGNATURE

    def test_spoofed_root_is_signed_once_per_target(self, toolbox, simple_ca):
        first = toolbox.spoofed_ca_chain(simple_ca.certificate, HOST)
        second = toolbox.spoofed_ca_chain(simple_ca.certificate, "other.example.com")
        assert second[1] is first[1]
        assert second[0].serial != first[0].serial  # each leaf is new
        spoofed = first[1]
        assert spoofed.serial == simple_ca.certificate.serial
        # The TBS encoding carried over from signing is the signed fields'.
        assert spoofed.tbs_bytes() == replace(spoofed).tbs_bytes()

    def test_unknown_ca_chain_triggers_unknown_ca(self, toolbox, victim_store):
        chain = toolbox.unknown_ca_chain(HOST)
        result = validate_chain(list(chain), victim_store, when=WHEN, hostname=HOST)
        assert result.code is ValidationErrorCode.UNKNOWN_CA


class TestInterceptionProxy:
    def test_incomplete_mode_sends_nothing(self, toolbox):
        proxy = InterceptionProxy(toolbox=toolbox, mode=AttackMode.INCOMPLETE_HANDSHAKE)
        response = proxy.respond(_hello(), when=WHEN)
        assert response.incomplete

    def test_proxy_negotiates_anything_offered(self, toolbox):
        proxy = InterceptionProxy(toolbox=toolbox, mode=AttackMode.NO_VALIDATION)
        response = proxy.respond(_hello(), when=WHEN)
        assert response.server_hello is not None
        assert response.certificate_chain[0].subject.common_name == HOST

    def test_chain_targets_sni_hostname(self, toolbox):
        proxy = InterceptionProxy(toolbox=toolbox, mode=AttackMode.NO_VALIDATION)
        response = proxy.respond(_hello("other.example.org"), when=WHEN)
        assert "other.example.org" in response.certificate_chain[0].subject_alt_names

    def test_observed_hellos_logged(self, toolbox):
        proxy = InterceptionProxy(toolbox=toolbox, mode=AttackMode.WRONG_HOSTNAME)
        proxy.respond(_hello(), when=WHEN)
        proxy.respond(_hello(), when=WHEN)
        assert len(proxy.observed_hellos) == 2

    def test_spoofed_ca_requires_target(self, toolbox):
        proxy = InterceptionProxy(toolbox=toolbox, mode=AttackMode.SPOOFED_CA)
        with pytest.raises(ValueError):
            proxy.respond(_hello(), when=WHEN)


class TestVersionProbe:
    def test_negotiates_exactly_the_probe_version(self, testbed):
        device = testbed.device("Wemo Plug")
        destination = device.profile.destinations[0]
        genuine = testbed.server_for(destination)
        responder = VersionProbeResponder(
            version=ProtocolVersion.TLS_1_0, chain=genuine.chain
        )
        connection = device.connect_destination(destination, responder)
        assert connection.established
        assert connection.attempt.final.established_version is ProtocolVersion.TLS_1_0

    def test_unacceptable_version_yields_no_hello(self, testbed):
        device = testbed.device("Switchbot Hub")  # TLS 1.2 only
        destination = device.profile.destinations[0]
        genuine = testbed.server_for(destination)
        responder = VersionProbeResponder(
            version=ProtocolVersion.TLS_1_0, chain=genuine.chain
        )
        connection = device.connect_destination(destination, responder)
        assert not connection.established


class TestPassthroughResponder:
    def test_routes_by_sni(self, toolbox, testbed):
        device = testbed.device("D-Link Camera")
        destination = device.profile.destinations[0]
        genuine = testbed.server_for(destination)
        proxy = InterceptionProxy(toolbox=toolbox, mode=AttackMode.NO_VALIDATION)
        responder = PassthroughResponder(
            attack_proxy=proxy,
            genuine=genuine,
            passthrough_hostnames=frozenset({destination.hostname}),
        )
        passed = responder.respond(_hello(destination.hostname), when=WHEN)
        assert passed.certificate_chain == genuine.chain
        intercepted = responder.respond(_hello("somewhere.else"), when=WHEN)
        assert intercepted.certificate_chain[0].is_self_signed
        assert responder.passed_through == [destination.hostname]
        assert responder.intercepted == ["somewhere.else"]
