"""Tests for revocation enforcement (does Table 8 checking protect?)."""

from __future__ import annotations

import pytest

from repro.core import RevocationAuditor
from repro.pki.revocation import RevocationMethod, RevocationStatus


@pytest.fixture(scope="module")
def enforcement(testbed):
    return {result.device: result for result in RevocationAuditor(testbed).audit_all()}


class TestEnforcement:
    def test_baselines_all_establish(self, enforcement):
        assert len(enforcement) == 32
        assert all(result.baseline_established for result in enforcement.values())

    def test_stapling_checkers_reject_revoked(self, enforcement):
        for name in ("Google Home Mini", "Wink Hub 2", "LG TV", "Apple TV", "Harman Invoke"):
            result = enforcement[name]
            assert result.method is RevocationMethod.OCSP_STAPLING, name
            assert result.protected, name

    def test_non_checkers_accept_revoked(self, enforcement):
        for name in ("Zmodo Doorbell", "D-Link Camera", "Wemo Plug", "Roku TV"):
            result = enforcement[name]
            assert result.method is RevocationMethod.NONE, name
            assert result.accepts_revoked_certificate, name

    def test_majority_unprotected(self, enforcement):
        """The paper's conclusion in enforcement terms: most devices are
        open to revoked certificates."""
        unprotected = [r for r in enforcement.values() if r.accepts_revoked_certificate]
        assert len(unprotected) >= 20

    def test_boot_instance_gaps(self, enforcement):
        """A stapling-capable device whose *boot* connection rides a
        non-stapling instance is unprotected on that path (Fire TV's
        android instance, Echo Spot's clock-sync instance)."""
        for name in ("Fire TV", "Amazon Echo Spot"):
            result = enforcement[name]
            assert result.method is RevocationMethod.NONE, name
            assert result.accepts_revoked_certificate, name

    def test_revocation_state_restored(self, testbed, enforcement):
        """The audit un-revokes after itself."""
        device = testbed.device("Google Home Mini")
        destination = device.first_destination()
        server = testbed.server_for(destination)
        assert not server.registry.is_revoked(server.chain[0].serial)
        device.power_cycle()
        assert device.connect_destination(destination, server).established


class TestTransport:
    def test_transport_resolves_registry_urls(self, testbed):
        registry = testbed.registry(0)
        assert testbed.revocation_transport(registry.ocsp_url, 12345) is RevocationStatus.GOOD
        registry.revoke_serial(12345)
        assert (
            testbed.revocation_transport(registry.ocsp_url, 12345) is RevocationStatus.REVOKED
        )
        assert (
            testbed.revocation_transport(registry.crl_url, 12345) is RevocationStatus.REVOKED
        )
        registry._revoked.discard(12345)
        registry.ocsp._revoked.discard(12345)

    def test_unknown_url_is_unknown(self, testbed):
        assert (
            testbed.revocation_transport("http://nowhere.example/crl", 1)
            is RevocationStatus.UNKNOWN
        )

    def test_ocsp_checker_via_transport(self, testbed, universe):
        """A device configured for out-of-band OCSP (no stapling) rejects
        a revoked certificate through the transport path."""
        from repro.devices import Device, device_by_name
        from repro.devices.policies import RevocationBehavior
        from dataclasses import replace as dc_replace

        profile = device_by_name("D-Link Camera")
        ocsp_profile = dc_replace(
            profile,
            name="D-Link Camera (OCSP variant)",
            revocation=RevocationBehavior.of(RevocationMethod.OCSP),
        )
        device = Device(
            ocsp_profile,
            universe=universe,
            revocation_transport=testbed.revocation_transport,
        )
        destination = device.first_destination()
        server = testbed.server_for(destination)
        assert device.connect_destination(destination, server).established
        server.registry.revoke(server.chain[0])
        try:
            device.power_cycle()
            connection = device.connect_destination(destination, server)
            assert not connection.established
            alert = connection.attempt.final.client_alert
            assert alert is not None and alert.description.name == "CERTIFICATE_REVOKED"
        finally:
            server.registry._revoked.discard(server.chain[0].serial)
            server.registry.ocsp._revoked.discard(server.chain[0].serial)
