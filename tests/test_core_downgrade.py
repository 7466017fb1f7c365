"""Tests for the downgrade and old-version audits (Tables 5 and 6)."""

from __future__ import annotations

import pytest

from repro.core import DowngradeAuditor, DowngradeKind, classify_downgrade
from repro.devices.configs import FS_MODERN, RSA_PLAIN, WEAK_LEGACY, codes
from repro.tls import ClientHello, ProtocolVersion


@pytest.fixture(scope="module")
def auditor(testbed):
    return DowngradeAuditor(testbed)


def _hello(version=ProtocolVersion.TLS_1_2, ciphers=FS_MODERN + RSA_PLAIN):
    return ClientHello(legacy_version=version, cipher_codes=ciphers)


class TestClassifier:
    def test_no_retry_means_no_downgrade(self):
        assert not classify_downgrade(_hello(), None).downgraded

    def test_version_fallback_detected(self):
        obs = classify_downgrade(_hello(), _hello(version=ProtocolVersion.SSL_3_0))
        assert obs.kind is DowngradeKind.VERSION_FALLBACK
        assert "SSL 3.0" in obs.detail

    def test_cipher_collapse_detected(self):
        rc4 = codes("TLS_RSA_WITH_RC4_128_SHA")
        obs = classify_downgrade(_hello(), _hello(ciphers=rc4))
        assert obs.kind is DowngradeKind.CIPHER_COLLAPSE
        assert "TLS_RSA_WITH_RC4_128_SHA" in obs.detail

    def test_weaker_cipher_addition_detected(self):
        weak = codes("TLS_RSA_WITH_3DES_EDE_CBC_SHA")
        obs = classify_downgrade(
            _hello(ciphers=FS_MODERN), _hello(ciphers=FS_MODERN + weak)
        )
        assert obs.kind is DowngradeKind.WEAKER_CIPHERS

    def test_identical_retry_is_not_downgrade(self):
        assert not classify_downgrade(_hello(), _hello()).downgraded


class TestTable5:
    def test_exactly_seven_downgraders(self, campaign_results):
        downgraders = {r.device for r in campaign_results.downgrade if r.downgrades}
        assert downgraders == {
            "Amazon Echo Dot",
            "Amazon Echo Plus",
            "Amazon Echo Spot",
            "Fire TV",
            "Apple HomePod",
            "Google Home Mini",
            "Roku TV",
        }

    def test_paper_ratios(self, campaign_results):
        expected = {
            "Amazon Echo Dot": (7, 9),
            "Amazon Echo Plus": (6, 7),
            "Amazon Echo Spot": (11, 15),
            "Fire TV": (13, 21),
            "Apple HomePod": (7, 9),
            "Google Home Mini": (5, 5),
            "Roku TV": (8, 15),
        }
        for report in campaign_results.downgrade:
            if report.device in expected:
                assert (
                    report.downgraded_destinations,
                    report.tested_destinations,
                ) == expected[report.device], report.device

    def test_triggers_match_paper(self, campaign_results):
        by_device = {r.device: r for r in campaign_results.downgrade}
        # Only Roku downgrades on failed handshakes too.
        assert by_device["Roku TV"].downgrades_on_failed
        assert by_device["Roku TV"].downgrades_on_incomplete
        for name in (
            "Amazon Echo Dot",
            "Amazon Echo Plus",
            "Amazon Echo Spot",
            "Fire TV",
            "Apple HomePod",
            "Google Home Mini",
        ):
            assert not by_device[name].downgrades_on_failed
            assert by_device[name].downgrades_on_incomplete

    def test_behaviors_match_paper(self, campaign_results):
        by_device = {r.device: r for r in campaign_results.downgrade}
        assert by_device["Amazon Echo Dot"].behavior == "Falls back to using SSL 3.0"
        assert by_device["Apple HomePod"].behavior == "Falls back to using TLS 1.0"
        assert "RSA_PKCS1_SHA1" in by_device["Google Home Mini"].behavior
        assert "TLS_RSA_WITH_RC4_128_SHA" in by_device["Roku TV"].behavior

    def test_google_home_mini_all_destinations(self, campaign_results):
        """GHM is 'susceptible to downgrades on all its connections'."""
        report = next(r for r in campaign_results.downgrade if r.device == "Google Home Mini")
        assert report.downgraded_destinations == report.tested_destinations


class TestTable6:
    def test_eighteen_devices_with_old_support(self, campaign_results):
        assert campaign_results.old_version_device_count == 18

    def test_wemo_is_tls10_only(self, campaign_results):
        wemo = next(s for s in campaign_results.old_versions if s.device == "Wemo Plug")
        assert wemo.tls10 and not wemo.tls11

    def test_samsung_appliances_tls11_only(self, campaign_results):
        for name in ("Samsung Dryer", "Samsung Fridge"):
            support = next(s for s in campaign_results.old_versions if s.device == name)
            assert support.tls11 and not support.tls10, name

    def test_modern_devices_absent(self, campaign_results):
        for name in ("D-Link Camera", "Apple TV", "Switchbot Hub", "Amazon Echo Dot 3"):
            support = next(s for s in campaign_results.old_versions if s.device == name)
            assert not support.any_old, name

    def test_both_versions_devices(self, campaign_results):
        both = {
            s.device for s in campaign_results.old_versions if s.tls10 and s.tls11
        }
        assert both == {
            "Zmodo Doorbell",
            "Wink Hub 2",
            "Yi Camera",
            "Philips Hub",
            "Smarter iKettle",  # "Smarter Brewer" in the paper
            "TP-Link Bulb",
            "Roku TV",
            "Meross Dooropener",
            "LG TV",
            "Google Home Mini",
            "Fire TV",
            "Amazon Echo Spot",
            "Amazon Echo Plus",
            "Amazon Echo Dot",
            "Amcrest Camera",
        }
