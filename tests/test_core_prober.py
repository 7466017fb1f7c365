"""Tests for the root-store prober (the paper's novel technique)."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.core import ProbeOutcome, RootStoreProber
from repro.core.prober import (
    AmenabilityCalibration,
    CertificateProbeResult,
    DeviceProbeReport,
)
from repro.devices import (
    DestinationSpec,
    Device,
    DeviceCategory,
    DeviceProfile,
    ServerEpoch,
    ServerSpec,
    TLSInstanceSpec,
)
from repro.devices import active_devices, device_by_name
from repro.devices.configs import FS_MODERN, RSA_PLAIN
from repro.devices.instance import InstanceConfigSpec
from repro.devices.policies import ValidationPolicy
from repro.devices.profile import ACTIVE_EXPERIMENT_MONTH
from repro.pki import RootStore
from repro.testbed import SmartPlug, Testbed
from repro.tls import ProtocolVersion
from repro.tls.alerts import AlertDescription
from repro.tlslib.catalog import OPENSSL
from repro.tlslib.library import AlertPolicy, TLSLibrary

#: A library that closes silently on unknown-CA chains but alerts on
#: bad signatures -- the one-sided-silence case of the §4.2 rule.
SILENT_ON_UNKNOWN_CA = TLSLibrary(
    name="SilentOnUnknownCA",
    version="0.1",
    alert_policy=AlertPolicy(
        on_unknown_ca=None,
        on_bad_signature=AlertDescription.DECRYPT_ERROR,
    ),
)


def _custom_library_device(
    testbed, library, name: str, *, validation: ValidationPolicy = ValidationPolicy()
) -> Device:
    """A single-instance device using ``library``, trusting the anchors."""
    anchors = [testbed.anchor(index).certificate for index in range(2)]
    store = RootStore.from_certificates(f"{name} store", anchors)
    config = InstanceConfigSpec(
        versions=(ProtocolVersion.TLS_1_2,), cipher_codes=FS_MODERN + RSA_PLAIN
    )
    profile = DeviceProfile(
        name=name,
        category=DeviceCategory.HOME_AUTOMATION,
        manufacturer="Synthetic",
        active=True,
        instances=(TLSInstanceSpec.static("main", library, config, validation=validation),),
        destinations=(
            DestinationSpec(
                hostname=f"{name.lower().replace(' ', '-')}.example.com",
                instance="main",
                server=ServerSpec.static(
                    ServerEpoch(
                        versions=(ProtocolVersion.TLS_1_2,),
                        cipher_codes=FS_MODERN + RSA_PLAIN,
                    )
                ),
            ),
        ),
    )
    return Device(profile, universe=testbed.universe, root_store=store)


@pytest.fixture(scope="module")
def prober(testbed):
    return RootStoreProber(testbed)


class TestCalibration:
    def test_openssl_device_amenable(self, prober, testbed):
        plug = SmartPlug(testbed.device("Wink Hub 2"))
        calibration = prober.calibrate(plug)
        assert calibration.amenable
        assert calibration.unknown_ca_alert == "unknown_ca"
        assert calibration.known_ca_alert == "decrypt_error"

    def test_mbedtls_device_amenable(self, prober, testbed):
        plug = SmartPlug(testbed.device("Google Home Mini"))
        calibration = prober.calibrate(plug)
        assert calibration.amenable
        assert calibration.known_ca_alert == "bad_certificate"

    def test_wolfssl_device_not_amenable(self, prober, testbed):
        plug = SmartPlug(testbed.device("D-Link Camera"))
        calibration = prober.calibrate(plug)
        assert not calibration.amenable
        assert "same alert" in calibration.reason

    def test_silent_device_not_amenable(self, prober, testbed):
        plug = SmartPlug(testbed.device("Apple TV"))
        calibration = prober.calibrate(plug)
        assert not calibration.amenable
        assert "no alerts" in calibration.reason

    def test_no_validation_device_not_amenable(self, prober, testbed):
        plug = SmartPlug(testbed.device("Zmodo Doorbell"))
        calibration = prober.calibrate(plug)
        assert not calibration.amenable
        assert "no validation" in calibration.reason

    def test_java_boot_device_not_amenable(self, prober, testbed):
        """Fire TV boots through the android-sdk (Java) instance."""
        plug = SmartPlug(testbed.device("Fire TV"))
        assert not prober.calibrate(plug).amenable

    def test_silent_on_unknown_ca_not_amenable(self, prober, testbed):
        """Regression: a device silent on *one* failure class must fail
        calibration -- §4.2 requires both alerts to exist and differ.
        Previously only both-silent devices were rejected, so this
        device calibrated with ``unknown_ca_alert=None`` and silent
        probe reboots aliased to ABSENT."""
        device = _custom_library_device(testbed, SILENT_ON_UNKNOWN_CA, "Half Silent Cam")
        calibration = prober.calibrate(SmartPlug(device))
        assert not calibration.amenable
        assert calibration.unknown_ca_alert is None
        assert calibration.known_ca_alert == "decrypt_error"
        assert "silent on unknown-CA" in calibration.reason

    def test_silent_probe_is_inconclusive_not_absent(self, prober, testbed, universe):
        """Regression: against a calibration with two real alerts, a
        reboot that produces *no* alert is INCONCLUSIVE -- silence must
        never alias to the absent-classification."""
        device = _custom_library_device(testbed, SILENT_ON_UNKNOWN_CA, "Half Silent Cam 2")
        calibration = AmenabilityCalibration(
            amenable=True, unknown_ca_alert="unknown_ca", known_ca_alert="decrypt_error"
        )
        # Any candidate outside the store: the device stays silent on the
        # resulting unknown-CA failure.
        record = universe.deprecated_records()[0]
        result = prober.probe_certificate(
            SmartPlug(device), calibration, record.certificate, conclusive_rate=1.0
        )
        assert result.observed_alert is None
        assert result.outcome is ProbeOutcome.INCONCLUSIVE


class TestCertificateProbing:
    def test_blackbox_inference_matches_ground_truth(self, prober, testbed, universe):
        """The key correctness property: the prober's PRESENT/ABSENT
        classifications agree with the device's actual store, without
        ever reading it."""
        device = testbed.device("Wink Hub 2")
        plug = SmartPlug(device)
        calibration = prober.calibrate(plug)
        checked = 0
        for record in universe.deprecated_records()[:30]:
            result = prober.probe_certificate(
                plug, calibration, record.certificate, conclusive_rate=1.0
            )
            assert result.outcome is not ProbeOutcome.INCONCLUSIVE
            truth = device.root_store.contains(record.certificate)
            assert (result.outcome is ProbeOutcome.PRESENT) == truth
            checked += 1
        assert checked == 30

    def test_inconclusive_rate_respected(self, prober, testbed, universe):
        device = testbed.device("Google Home Mini")
        plug = SmartPlug(device)
        calibration = prober.calibrate(plug)
        outcomes = [
            prober.probe_certificate(
                plug, calibration, record.certificate, conclusive_rate=0.0
            ).outcome
            for record in universe.common_records()[:5]
        ]
        assert all(outcome is ProbeOutcome.INCONCLUSIVE for outcome in outcomes)

    def test_probe_is_deterministic(self, prober, testbed, universe):
        device = testbed.device("Roku TV")
        plug = SmartPlug(device)
        calibration = prober.calibrate(plug)
        record = universe.deprecated_records()[0]
        first = prober.probe_certificate(plug, calibration, record.certificate, conclusive_rate=0.8)
        second = prober.probe_certificate(plug, calibration, record.certificate, conclusive_rate=0.8)
        assert first == second


class TestDeviceReports:
    def test_non_amenable_device_report_is_empty(self, prober, testbed):
        report = prober.probe_device(testbed.device("Philips Hub"))
        assert not report.calibration.amenable
        assert report.common_results == []
        assert report.deprecated_results == []

    def test_amenable_report_covers_both_sets(self, prober, testbed, universe):
        report = prober.probe_device(testbed.device("Harman Invoke"))
        assert report.calibration.amenable
        assert len(report.common_results) == len(universe.common_records())
        assert len(report.deprecated_results) == len(universe.deprecated_records())
        present, conclusive = report.deprecated_tally
        assert 0 < present <= conclusive <= 87

    def test_table9_row_rendering(self, prober, testbed):
        report = prober.probe_device(testbed.device("Google Home Mini"))
        device, common, deprecated = report.table9_row()
        assert device == "Google Home Mini"
        assert "%" in common and "/" in common
        assert "%" in deprecated

    def test_table9_rounds_half_up(self):
        """Regression: percentages ending in .5 round up (62.5% -> 63%),
        matching the paper's tables; ``round()`` banker's-rounds them to
        the nearest even digit (62.5% -> 62%, 12.5% -> 12%)."""

        def results(present: int, conclusive: int) -> list[CertificateProbeResult]:
            outcomes = [ProbeOutcome.PRESENT] * present + [ProbeOutcome.ABSENT] * (
                conclusive - present
            )
            return [
                CertificateProbeResult(certificate_name=f"CA {i}", outcome=outcome)
                for i, outcome in enumerate(outcomes)
            ]

        report = DeviceProbeReport(
            device="Rounding Device",
            calibration=AmenabilityCalibration(
                amenable=True, unknown_ca_alert="unknown_ca", known_ca_alert="bad_certificate"
            ),
            common_results=results(5, 8),  # 62.5%
            deprecated_results=results(1, 8),  # 12.5%
        )
        _, common, deprecated = report.table9_row()
        assert common == "63% (5/8)"
        assert deprecated == "13% (1/8)"

    def test_present_deprecated_names_feed_fig4(self, prober, testbed, universe):
        report = prober.probe_device(testbed.device("LG TV"))
        names = report.present_deprecated_names()
        # LG TV pins TurkTrust (deprecated 2013) -- the paper's oldest case.
        assert "TURKTRUST Elektronik Sertifika Hizmet Saglayicisi" in names


class _FullBootProber(RootStoreProber):
    """The reference: every probe reboot runs the device's whole boot, the
    first destination intercepted and the rest sent to their genuine
    servers, and reads the first destination's connection."""

    def _observe_alert(self, plug, proxy):
        first = plug.device.first_destination()

        def responder_for(destination):
            if destination.hostname == first.hostname:
                return proxy
            return self.testbed.server_for(destination)

        connections = plug.reboot(responder_for, month=ACTIVE_EXPERIMENT_MONTH)
        (connection,) = [c for c in connections if c.destination.hostname == first.hostname]
        result = connection.attempt.attempts[0]
        if result.established:
            return None, True
        alert = result.client_alert
        return (alert.description.name.lower() if alert else None), False


class TestProbeReboot:
    """A probe reboot simulates only the connection the probe observes."""

    def test_reports_equal_full_boot_reference(self, universe, campaign_results):
        """A power cycle resets every instance's failure state before the
        first connection, so the connections after it never change what
        the probe reads: every report equals the full-boot reference's.
        Every rebootable device is covered, the probe-eligible ones and
        the rest (the Yi Camera, whose validation gives up after three
        failures, among them)."""
        names = [profile.name for profile in active_devices() if profile.rebootable]
        assert set(campaign_results.probe_eligible) < set(names)
        assert "Yi Camera" in names
        prober = RootStoreProber(Testbed(universe))
        reference = _FullBootProber(Testbed(universe))
        for name in names:
            report = prober.probe_device(prober.testbed.device(name))
            assert report == reference.probe_device(reference.testbed.device(name)), name

    def test_probe_reboot_resets_failure_state(self, universe):
        """A device whose validation gives up after three straight failures
        (the Yi Camera's behaviour) keeps validating across probe reboots,
        as it does across full boots."""
        reports = []
        for prober in (RootStoreProber(Testbed(universe)), _FullBootProber(Testbed(universe))):
            device = _custom_library_device(
                prober.testbed,
                OPENSSL,
                "Giving-Up Cam",
                validation=ValidationPolicy(disable_after_failures=3),
            )
            reports.append(
                prober.probe_device(
                    device,
                    common=universe.common_records()[:4],
                    deprecated=universe.deprecated_records()[:4],
                )
            )
        report, reference = reports
        assert report == reference
        assert report.calibration.amenable
        results = report.common_results + report.deprecated_results
        assert len(results) == 8
        assert all(result.outcome is not ProbeOutcome.INCONCLUSIVE for result in results)

    @pytest.mark.parametrize(
        "name, reboots", [("Wink Hub 2", 193), ("D-Link Camera", 3), ("Apple TV", 3)]
    )
    def test_one_connection_per_reboot(self, universe, monkeypatch, name, reboots):
        connects = []
        original = Device.connect_destination

        def counting(self, destination, responder, **kwargs):
            connects.append(destination.hostname)
            return original(self, destination, responder, **kwargs)

        monkeypatch.setattr(Device, "connect_destination", counting)
        testbed = Testbed(universe)
        device = testbed.device(name)
        runtime = telemetry.configure(enabled=True)
        try:
            RootStoreProber(testbed).probe_device(device)
            counted = runtime.registry.get("iotls_probe_reboots_total").value(device=name)
            handshakes = runtime.registry.get("iotls_handshakes_total").total()
        finally:
            telemetry.configure(enabled=False)
        assert counted == reboots
        assert connects == [device.first_destination().hostname] * reboots
        # A reboot connects only the probed destination: one handshake each.
        assert handshakes == reboots
