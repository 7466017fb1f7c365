"""Failure injection and edge cases across the stack."""

from __future__ import annotations

import pytest

from repro.devices import (
    DestinationSpec,
    DeviceCategory,
    DeviceProfile,
    LongitudinalSpec,
    ServerEpoch,
    ServerSpec,
    TLSInstanceSpec,
    month_to_date,
)
from repro.devices.configs import FS_MODERN, RSA_PLAIN
from repro.devices.instance import InstanceConfigSpec
from repro.mitm import AttackerToolbox, AttackMode, InterceptionProxy
from repro.pki import utc
from repro.tls import (
    ClientHello,
    GREASE_CODEPOINTS,
    ProtocolVersion,
    handshake_failure_response,
    negotiate,
    sni,
)
from repro.tlslib import WOLFSSL


class TestGreaseAndMalformedHellos:
    def test_negotiation_ignores_grease_only_offer(self):
        hello = ClientHello(
            legacy_version=ProtocolVersion.TLS_1_2,
            cipher_codes=tuple(sorted(GREASE_CODEPOINTS)[:4]),
        )
        assert negotiate(hello, frozenset({ProtocolVersion.TLS_1_2}), RSA_PLAIN) is None

    def test_negotiation_skips_unknown_codepoints(self):
        hello = ClientHello(
            legacy_version=ProtocolVersion.TLS_1_2,
            cipher_codes=(0xFFFE, 0xABCD) + RSA_PLAIN[:1],
        )
        server_hello = negotiate(
            hello, frozenset({ProtocolVersion.TLS_1_2}), (0xFFFE,) + RSA_PLAIN
        )
        assert server_hello is not None
        assert server_hello.cipher_code == RSA_PLAIN[0]

    def test_proxy_survives_unintelligible_offer(self, testbed):
        proxy = InterceptionProxy(
            toolbox=AttackerToolbox(issuing_ca=testbed.anchor(0)),
            mode=AttackMode.NO_VALIDATION,
        )
        hello = ClientHello(
            legacy_version=ProtocolVersion.TLS_1_2,
            cipher_codes=(0xFFFE,),
            extensions=(sni("x.example"),),
        )
        response = proxy.respond(hello, when=utc(2021, 3))
        assert response.incomplete  # nothing to negotiate, no crash

    def test_hello_without_sni_gets_fallback_subject(self, testbed):
        proxy = InterceptionProxy(
            toolbox=AttackerToolbox(issuing_ca=testbed.anchor(0)),
            mode=AttackMode.NO_VALIDATION,
        )
        hello = ClientHello(legacy_version=ProtocolVersion.TLS_1_2, cipher_codes=RSA_PLAIN)
        response = proxy.respond(hello, when=utc(2021, 3))
        assert response.server_hello is not None
        assert response.certificate_chain[0].subject.common_name == "unknown.host"

    def test_handshake_failure_helper(self):
        response = handshake_failure_response()
        assert response.alert is not None
        assert response.server_hello is None


class TestProfileValidation:
    def _instance(self) -> TLSInstanceSpec:
        return TLSInstanceSpec.static(
            "only",
            WOLFSSL,
            InstanceConfigSpec(versions=(ProtocolVersion.TLS_1_2,), cipher_codes=FS_MODERN),
        )

    def _dest(self, instance: str) -> DestinationSpec:
        return DestinationSpec(
            hostname="edge.example.com",
            instance=instance,
            server=ServerSpec.static(
                ServerEpoch(versions=(ProtocolVersion.TLS_1_2,), cipher_codes=FS_MODERN)
            ),
        )

    def test_destination_must_reference_instance(self):
        with pytest.raises(ValueError, match="unknown instance"):
            DeviceProfile(
                name="Broken Device",
                category=DeviceCategory.CAMERA,
                manufacturer="Test",
                active=True,
                instances=(self._instance(),),
                destinations=(self._dest("missing"),),
            )

    def test_duplicate_instance_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate instance names"):
            DeviceProfile(
                name="Broken Device",
                category=DeviceCategory.CAMERA,
                manufacturer="Test",
                active=True,
                instances=(self._instance(), self._instance()),
            )

    def test_instance_spec_lookup(self):
        profile = DeviceProfile(
            name="Edge Device",
            category=DeviceCategory.CAMERA,
            manufacturer="Test",
            active=True,
            instances=(self._instance(),),
            destinations=(self._dest("only"),),
        )
        assert profile.instance_spec("only").name == "only"
        with pytest.raises(KeyError):
            profile.instance_spec("nope")
        assert profile.destinations_via("only") == list(profile.destinations)


class TestTimeGrid:
    def test_month_to_date_mapping(self):
        assert month_to_date(0).year == 2018 and month_to_date(0).month == 1
        assert month_to_date(11).month == 12
        assert month_to_date(12).year == 2019
        assert month_to_date(26).year == 2020 and month_to_date(26).month == 3
        assert month_to_date(38).year == 2021 and month_to_date(38).month == 3

    def test_longitudinal_spec_gaps(self):
        spec = LongitudinalSpec(first_month=2, last_month=10, gap_months=frozenset({5, 6}))
        assert spec.active_in(2) and spec.active_in(10)
        assert not spec.active_in(1) and not spec.active_in(11)
        assert not spec.active_in(5)
        assert spec.months_active == 7


class TestCaptureUtilities:
    def test_months_sorted(self, passive_capture):
        months = sorted({record.month for record in passive_capture.records})
        assert months[0] == 0 and months[-1] == 26


class TestFingerprintCollectionWeights:
    def test_usage_counts_reflect_destination_weights(self, testbed):
        from repro.fingerprint import collect_device_fingerprints

        collected = {c.device: c for c in collect_device_fingerprints(testbed, reboots=1)}
        firetv = collected["Fire TV"]
        # android-sdk traffic dominates (7 destinations x weight 8).
        dominant_count = firetv.usage[firetv.dominant]
        assert dominant_count == max(firetv.usage.values())
        assert dominant_count >= 7 * 8
