"""Unit tests for the simulated TLS libraries (Table 4 behaviours)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.devices.configs import FS_MODERN, RSA_PLAIN
from repro.pki import utc
from repro.pki.validation import ValidationErrorCode
from repro.tls import AlertDescription, ExtensionType, ProtocolVersion
from repro.tlslib import (
    ALL_LIBRARIES,
    GNUTLS,
    MBEDTLS,
    OPENSSL,
    ORACLE_JAVA,
    SECURE_TRANSPORT,
    WOLFSSL,
    ClientConfig,
    by_name,
)

WHEN = utc(2021, 3)


def _config(store, **kwargs) -> ClientConfig:
    defaults = dict(
        versions=(ProtocolVersion.TLS_1_2,),
        cipher_codes=FS_MODERN + RSA_PLAIN,
        root_store=store,
    )
    defaults.update(kwargs)
    return ClientConfig(**defaults)


class TestCatalog:
    def test_six_libraries(self):
        assert len(ALL_LIBRARIES) == 6

    def test_lookup_by_name(self):
        assert by_name("OpenSSL") is OPENSSL
        with pytest.raises(KeyError):
            by_name("BoringSSL")

    def test_exactly_two_amenable_policies(self):
        amenable = [lib for lib in ALL_LIBRARIES if lib.alert_policy.distinguishes_unknown_ca]
        assert {lib.name for lib in amenable} == {"MbedTLS", "OpenSSL"}

    @pytest.mark.parametrize(
        "library,unknown,bad_sig",
        [
            (MBEDTLS, AlertDescription.UNKNOWN_CA, AlertDescription.BAD_CERTIFICATE),
            (OPENSSL, AlertDescription.UNKNOWN_CA, AlertDescription.DECRYPT_ERROR),
            (ORACLE_JAVA, AlertDescription.CERTIFICATE_UNKNOWN, AlertDescription.CERTIFICATE_UNKNOWN),
            (WOLFSSL, AlertDescription.BAD_CERTIFICATE, AlertDescription.BAD_CERTIFICATE),
            (GNUTLS, None, None),
            (SECURE_TRANSPORT, None, None),
        ],
    )
    def test_table4_alert_policies(self, library, unknown, bad_sig):
        policy = library.alert_policy
        assert policy.alert_for(ValidationErrorCode.UNKNOWN_CA) is unknown
        assert policy.alert_for(ValidationErrorCode.BAD_SIGNATURE) is bad_sig

    def test_a_replaced_policy_maps_its_own_alerts(self):
        """Each policy builds its alert table once, from its own fields."""
        policy = replace(
            OPENSSL.alert_policy,
            on_unknown_ca=AlertDescription.ACCESS_DENIED,
            on_expired=None,
        )
        assert policy.alert_for(ValidationErrorCode.UNKNOWN_CA) is AlertDescription.ACCESS_DENIED
        assert policy.alert_for(ValidationErrorCode.NOT_YET_VALID) is None
        bad_signature = policy.alert_for(ValidationErrorCode.BAD_SIGNATURE)
        assert bad_signature is AlertDescription.DECRYPT_ERROR
        assert OPENSSL.alert_policy.alert_for(ValidationErrorCode.UNKNOWN_CA) is (
            AlertDescription.UNKNOWN_CA
        )

    def test_silent_libraries_flagged(self):
        assert not GNUTLS.sends_alerts
        assert not SECURE_TRANSPORT.sends_alerts
        assert OPENSSL.sends_alerts


class TestHelloShaping:
    def test_extension_dialects_differ(self, simple_store):
        config = _config(simple_store)
        hellos = {
            library.name: library.client(config).build_client_hello("h.example.com")
            for library in ALL_LIBRARIES
        }
        type_orders = {
            name: tuple(ext.extension_type for ext in hello.extensions)
            for name, hello in hellos.items()
        }
        assert len(set(type_orders.values())) == len(ALL_LIBRARIES)

    def test_sni_respects_config(self, simple_store):
        client = OPENSSL.client(_config(simple_store, send_sni=False))
        hello = client.build_client_hello("h.example.com")
        assert hello.server_name is None

    def test_staple_request_respects_config(self, simple_store):
        client = OPENSSL.client(_config(simple_store, request_ocsp_staple=True))
        hello = client.build_client_hello("h.example.com")
        assert hello.requests_ocsp_staple

    def test_tls13_offer_uses_supported_versions(self, simple_store):
        config = _config(
            simple_store,
            versions=(ProtocolVersion.TLS_1_2, ProtocolVersion.TLS_1_3),
        )
        hello = OPENSSL.client(config).build_client_hello("h.example.com")
        assert hello.legacy_version is ProtocolVersion.TLS_1_2  # RFC 8446
        assert hello.max_version is ProtocolVersion.TLS_1_3
        assert hello.extension(ExtensionType.SUPPORTED_VERSIONS) is not None

    def test_pre13_hello_hides_lower_versions(self, simple_store):
        """Offering 1.0-1.2 looks identical on the wire to offering only
        1.2 -- the fingerprint cannot tell them apart."""
        legacy = _config(
            simple_store,
            versions=(
                ProtocolVersion.TLS_1_0,
                ProtocolVersion.TLS_1_1,
                ProtocolVersion.TLS_1_2,
            ),
        )
        modern = _config(simple_store, versions=(ProtocolVersion.TLS_1_2,))
        hello_legacy = OPENSSL.client(legacy).build_client_hello("h.example.com")
        hello_modern = OPENSSL.client(modern).build_client_hello("h.example.com")
        assert hello_legacy == hello_modern

    def test_session_ticket_extension_conditional(self, simple_store):
        with_ticket = OPENSSL.client(
            _config(simple_store, session_tickets=True)
        ).build_client_hello("h")
        without = OPENSSL.client(_config(simple_store)).build_client_hello("h")
        has = lambda hello: hello.extension(ExtensionType.SESSION_TICKET) is not None
        assert has(with_ticket) and not has(without)


class TestValidationKnobs:
    def test_validate_false_accepts_anything(self, simple_store):
        from repro.pki import CertificateAuthority
        from repro.tls import ServerHello, ServerResponse

        config = _config(simple_store, validate=False)
        client = WOLFSSL.client(config)
        bad, _ = CertificateAuthority.self_signed_leaf("h.example.com")
        response = ServerResponse(
            server_hello=ServerHello(version=ProtocolVersion.TLS_1_2, cipher_code=FS_MODERN[0]),
            certificate_chain=(bad,),
        )
        verdict = client.evaluate_response(response, hostname="h.example.com", when=WHEN)
        assert verdict.accept

    def test_no_hostname_check_accepts_wrong_name(self, simple_store, simple_ca):
        from repro.tls import ServerHello, ServerResponse

        leaf, _ = simple_ca.issue_leaf("attacker.example")
        config = _config(simple_store, check_hostname=False)
        client = OPENSSL.client(config)
        response = ServerResponse(
            server_hello=ServerHello(version=ProtocolVersion.TLS_1_2, cipher_code=FS_MODERN[0]),
            certificate_chain=(leaf, simple_ca.certificate),
        )
        verdict = client.evaluate_response(response, hostname="victim.example", when=WHEN)
        assert verdict.accept

    def test_silent_library_rejects_without_alert(self, simple_store):
        from repro.pki import CertificateAuthority
        from repro.tls import ServerHello, ServerResponse

        client = GNUTLS.client(_config(simple_store))
        bad, _ = CertificateAuthority.self_signed_leaf("h.example.com")
        response = ServerResponse(
            server_hello=ServerHello(version=ProtocolVersion.TLS_1_2, cipher_code=FS_MODERN[0]),
            certificate_chain=(bad,),
        )
        verdict = client.evaluate_response(response, hostname="h.example.com", when=WHEN)
        assert not verdict.accept
        assert verdict.alert is None

    def test_downgraded_copy_changes_only_requested_fields(self, simple_store):
        config = _config(simple_store)
        downgraded = config.downgraded(versions=(ProtocolVersion.SSL_3_0,))
        assert downgraded.versions == (ProtocolVersion.SSL_3_0,)
        assert downgraded.cipher_codes == config.cipher_codes
        assert downgraded.root_store is config.root_store
