"""Tests for the attacker toolbox, interception proxy and passthrough."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.devices.configs import FS_MODERN, RSA_PLAIN
from repro.mitm import (
    ATTACKER_DOMAIN,
    AttackMode,
    AttackerToolbox,
    InterceptionProxy,
    PassthroughResponder,
    VersionProbeResponder,
)
from repro.mitm.forge import ATTACKER_CIPHERS, ATTACKER_VERSIONS
from repro.pki import (
    CertificateAuthority,
    DistinguishedName,
    RootStore,
    ValidationErrorCode,
    utc,
    validate_chain,
)
from repro.tls import ClientHello, ProtocolVersion, negotiate, sni, supported_versions_ext
from repro.tls.ciphersuites import REGISTRY

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


# ----------------------------------------------------------------------
# One attacker shared by every proxy: its caches change no answer
# ----------------------------------------------------------------------
_ROOTS = [
    CertificateAuthority(
        DistinguishedName(common_name=f"Property Root {index}", organization="Property"),
        seed=f"property-root:{index}".encode(),
    )
    for index in range(3)
]
#: The attacker every generated example shares, as one testbed's auditors do.
_SHARED = AttackerToolbox(issuing_ca=_ROOTS[0])
_STORE = RootStore.from_certificates("property", [_ROOTS[0].certificate])

_HOSTNAMES = st.from_regex(r"[a-z0-9]{1,10}(\.[a-z0-9]{1,8}){1,2}", fullmatch=True)
_FORGED_MODES = [
    AttackMode.NO_VALIDATION,
    AttackMode.FAILED_HANDSHAKE,
    AttackMode.WRONG_HOSTNAME,
    AttackMode.INVALID_BASIC_CONSTRAINTS,
    AttackMode.UNKNOWN_CA,
]


@st.composite
def _hellos(draw) -> ClientHello:
    versions = draw(st.sets(st.sampled_from(sorted(ATTACKER_VERSIONS)), min_size=1))
    codes = tuple(
        draw(st.lists(st.sampled_from(sorted(REGISTRY)), min_size=1, max_size=8, unique=True))
    )
    hostname = draw(st.none() | _HOSTNAMES)
    extensions = (sni(hostname),) if hostname else ()
    if ProtocolVersion.TLS_1_3 in versions:
        wire = tuple(version.wire for version in sorted(versions, reverse=True))
        return ClientHello(
            legacy_version=ProtocolVersion.TLS_1_2,
            cipher_codes=codes,
            extensions=(*extensions, supported_versions_ext(wire)),
        )
    return ClientHello(legacy_version=max(versions), cipher_codes=codes, extensions=extensions)


def _identity(chain):
    """Everything a client reads of a forged chain but the serials and
    signatures, which each forging draws anew."""
    return [
        (cert.subject, cert.issuer, cert.public_key, cert.subject_alt_names,
         cert.basic_constraints)
        for cert in chain
    ]


class TestSharedAttacker:
    @settings(max_examples=60, deadline=None)
    @given(hostname=_HOSTNAMES, mode=st.sampled_from(_FORGED_MODES))
    def test_one_chain_per_mode_and_hostname(self, hostname, mode):
        hello = _hello(hostname)
        first, second = (
            InterceptionProxy(toolbox=_SHARED, mode=mode).respond(hello, when=WHEN)
            for _ in range(2)
        )
        assert second.certificate_chain is first.certificate_chain
        fresh = InterceptionProxy(toolbox=AttackerToolbox(issuing_ca=_ROOTS[0]), mode=mode)
        forged = fresh.respond(hello, when=WHEN).certificate_chain
        assert _identity(first.certificate_chain) == _identity(forged)
        for check_hostname in (True, False):
            cached, anew = (
                validate_chain(
                    list(chain),
                    _STORE,
                    when=WHEN,
                    hostname=hostname,
                    check_hostname=check_hostname,
                    check_basic_constraints=check_hostname,
                ).code
                for chain in (first.certificate_chain, forged)
            )
            assert cached is anew

    @settings(max_examples=80, deadline=None)
    @given(hello=_hellos())
    def test_negotiated_equals_negotiate(self, hello):
        expected = negotiate(hello, ATTACKER_VERSIONS, ATTACKER_CIPHERS)
        assert _SHARED.negotiated(hello) == expected
        assert _SHARED.negotiated(hello) == expected  # from the cache
        assert _SHARED.negotiated(replace(hello)) == expected  # an equal hello

    @settings(max_examples=40, deadline=None)
    @given(hostname=_HOSTNAMES, order=st.permutations(_ROOTS))
    def test_spoofed_chain_keeps_its_side_channel(self, hostname, order):
        # Every target twice for one hostname: the later chains reuse the
        # cached spoofed roots and the hostname's cached leaf key.
        for target in order * 2:
            holds = RootStore.from_certificates("holds", [target.certificate])
            other = next(root for root in _ROOTS if root is not target)
            lacks = RootStore.from_certificates("lacks", [other.certificate])
            chain = list(_SHARED.spoofed_ca_chain(target.certificate, hostname))
            fresh = AttackerToolbox(issuing_ca=_ROOTS[0])
            forged = fresh.spoofed_ca_chain(target.certificate, hostname)
            assert _identity(chain) == _identity(forged)
            present = validate_chain(chain, holds, when=WHEN, hostname=hostname)
            absent = validate_chain(chain, lacks, when=WHEN, hostname=hostname)
            assert present.code is ValidationErrorCode.BAD_SIGNATURE
            assert absent.code is ValidationErrorCode.UNKNOWN_CA
