"""Tests for the §6 mitigations: pinning, audit service, guardian,
TLS-as-OS-service hardening."""

from __future__ import annotations

import pytest

from repro.core import InterceptionAuditor, TABLE2_ATTACKS
from repro.devices import Device, device_by_name
from repro.devices.configs import FS_MODERN, RSA_PLAIN, WEAK_LEGACY
from repro.fingerprint import fingerprint
from repro.mitigations import (
    Advisory,
    GuardianPolicy,
    InHomeGuardian,
    PinnedClient,
    Severity,
    TLSAuditService,
    harden_device,
    pin_leaf,
    pin_root,
)
from repro.mitm import AttackerToolbox, AttackMode, InterceptionProxy
from repro.pki import utc
from repro.tls import ProtocolVersion, perform_handshake
from repro.tlslib import ClientConfig, OPENSSL, WOLFSSL

WHEN = utc(2021, 3)


# ---------------------------------------------------------------------------
# Pinning
# ---------------------------------------------------------------------------


class TestPinning:
    @pytest.fixture()
    def setup(self, testbed):
        device = testbed.device("Zmodo Doorbell")  # performs NO validation
        destination = device.first_destination()
        server = testbed.server_for(destination)
        toolbox = AttackerToolbox(issuing_ca=testbed.anchor(0))
        return device, destination, server, toolbox

    def _client_for(self, device, destination):
        instance = device.instance(destination.instance)
        return instance.spec.library.client(instance.client_config(38))

    def test_leaf_pin_blocks_all_attacks_even_without_validation(self, setup):
        device, destination, server, toolbox = setup
        inner = self._client_for(device, destination)
        pinned = PinnedClient(inner, pin_leaf(server.chain[0]))

        for mode in (
            AttackMode.NO_VALIDATION,
            AttackMode.WRONG_HOSTNAME,
            AttackMode.INVALID_BASIC_CONSTRAINTS,
        ):
            proxy = InterceptionProxy(toolbox=toolbox, mode=mode)
            result = perform_handshake(
                pinned, proxy, hostname=destination.hostname, when=WHEN
            )
            assert not result.established, mode

    def test_leaf_pin_permits_genuine_server(self, setup):
        device, destination, server, _ = setup
        pinned = PinnedClient(self._client_for(device, destination), pin_leaf(server.chain[0]))
        result = perform_handshake(pinned, server, hostname=destination.hostname, when=WHEN)
        assert result.established

    def test_root_pin_blocks_self_signed(self, setup):
        device, destination, server, toolbox = setup
        pinned = PinnedClient(
            self._client_for(device, destination), pin_root(server.chain[-1])
        )
        proxy = InterceptionProxy(toolbox=toolbox, mode=AttackMode.NO_VALIDATION)
        result = perform_handshake(pinned, proxy, hostname=destination.hostname, when=WHEN)
        assert not result.established

    def test_root_pin_without_validation_still_falls_to_same_ca_cert(
        self, setup, testbed
    ):
        """The paper's caveat: pinning the root is not enough, and
        validation is necessary even with pinning.  The attacker's
        WrongHostname chain terminates at the *pinned* anchor, so a
        root-pinned, non-validating client accepts it."""
        device, destination, _, toolbox = setup
        anchor = testbed.anchor(0)
        pinned = PinnedClient(
            self._client_for(device, destination), pin_root(anchor.certificate)
        )
        proxy = InterceptionProxy(toolbox=toolbox, mode=AttackMode.WRONG_HOSTNAME)
        result = perform_handshake(pinned, proxy, hostname=destination.hostname, when=WHEN)
        assert result.established  # apparent security, still interceptable

    def test_leaf_pin_blocks_that_same_attack(self, setup):
        device, destination, server, toolbox = setup
        pinned = PinnedClient(
            self._client_for(device, destination), pin_leaf(server.chain[0])
        )
        proxy = InterceptionProxy(toolbox=toolbox, mode=AttackMode.WRONG_HOSTNAME)
        result = perform_handshake(pinned, proxy, hostname=destination.hostname, when=WHEN)
        assert not result.established

    def test_empty_chain_never_matches_pin(self, setup):
        _, _, server, _ = setup
        assert not pin_leaf(server.chain[0]).matches(())


# ---------------------------------------------------------------------------
# Audit service
# ---------------------------------------------------------------------------


class TestAuditService:
    @pytest.fixture()
    def service(self, testbed):
        return TLSAuditService(testbed.anchor(0))

    def _check_in(self, testbed, service, device_name):
        return service.check_in(testbed.device(device_name))

    def test_wemo_graded_critical(self, testbed, service):
        connection = self._check_in(testbed, service, "Wemo Plug")
        assert connection.established  # cooperating endpoint accepts TLS 1.0
        assert service.worst_severity("Wemo Plug") is Severity.CRITICAL
        advisories = {finding.advisory for finding in service.findings_for("Wemo Plug")}
        assert "deprecated-max-version" in advisories
        assert "insecure-ciphersuites" in advisories
        assert "no-forward-secrecy" in advisories

    def test_clean_device_gets_only_info(self, testbed, service):
        self._check_in(testbed, service, "D-Link Camera")
        assert service.worst_severity("D-Link Camera") is Severity.INFO
        advisories = {f.advisory for f in service.findings_for("D-Link Camera")}
        assert advisories == {"tls13-not-adopted"}

    def test_new_advisory_applies_to_later_checkins(self, testbed, service):
        from repro.tls.extensions import ExtensionType, SignatureScheme

        self._check_in(testbed, service, "Wemo Plug")

        def sha1_signatures(hello):
            ext = hello.extension(ExtensionType.SIGNATURE_ALGORITHMS)
            if ext and SignatureScheme.RSA_PKCS1_SHA1.value in ext.data:
                return "offers RSA-PKCS1-SHA1 signatures"
            return None

        service.publish_advisory(Advisory("sha1-signatures", Severity.WARNING, sha1_signatures))
        before = [f for f in service.findings_for("Wemo Plug") if f.advisory == "sha1-signatures"]
        assert before == []  # graded before publication
        self._check_in(testbed, service, "Wemo Plug")
        after = [f for f in service.findings_for("Wemo Plug") if f.advisory == "sha1-signatures"]
        assert len(after) == 1

    def test_vendor_report_groups_by_device(self, testbed, service):
        self._check_in(testbed, service, "Wemo Plug")
        self._check_in(testbed, service, "D-Link Camera")
        report = service.vendor_report()
        assert set(report) == {"Wemo Plug", "D-Link Camera"}


# ---------------------------------------------------------------------------
# In-home guardian
# ---------------------------------------------------------------------------


class TestGuardian:
    def test_forwards_secure_connections(self, testbed):
        device = testbed.device("D-Link Camera")
        destination = device.first_destination()
        guardian = InHomeGuardian(
            device=device.name, upstream=testbed.server_for(destination)
        )
        connection = device.connect_destination(destination, guardian)
        assert connection.established
        assert guardian.forwarded == 1
        assert guardian.paused == []

    def test_pauses_old_version_negotiation(self, testbed):
        device = testbed.device("Samsung Dryer")  # server negotiates TLS 1.1
        destination = device.first_destination()
        guardian = InHomeGuardian(
            device=device.name, upstream=testbed.server_for(destination)
        )
        connection = device.connect_destination(destination, guardian)
        assert not connection.established
        assert len(guardian.paused) >= 1
        assert "TLS 1.1" in guardian.paused[0].reason

    def test_user_allow_releases_connection(self, testbed):
        device = testbed.device("Samsung Dryer")
        destination = device.first_destination()
        guardian = InHomeGuardian(
            device=device.name, upstream=testbed.server_for(destination)
        )
        device.connect_destination(destination, guardian)  # paused
        guardian.allow(destination.hostname)
        connection = device.connect_destination(destination, guardian)
        assert connection.established

    def test_pauses_insecure_suite(self, testbed):
        device = testbed.device("Wink Hub 2")
        destination = device.profile.destinations[1]  # RC4-preferring endpoint
        guardian = InHomeGuardian(
            device=device.name, upstream=testbed.server_for(destination)
        )
        connection = device.connect_destination(destination, guardian)
        assert not connection.established
        assert "RC4" in guardian.paused[0].reason

    def test_forward_secrecy_policy(self, testbed):
        device = testbed.device("Amazon Echo Dot")
        destination = device.profile.destinations[0]  # RSA-preferring server
        guardian = InHomeGuardian(
            device=device.name,
            upstream=testbed.server_for(destination),
            policy=GuardianPolicy(require_forward_secrecy=True),
        )
        connection = device.connect_destination(destination, guardian)
        assert not connection.established
        assert "non-forward-secret" in guardian.paused[0].reason


# ---------------------------------------------------------------------------
# TLS as an OS service
# ---------------------------------------------------------------------------


class TestSecureService:
    def test_hardened_device_resists_all_attacks(self, testbed, universe):
        hardened = harden_device(device_by_name("Zmodo Doorbell"))
        device = Device(hardened, universe=universe)
        auditor = InterceptionAuditor(testbed)
        report = auditor.audit_device(device)
        assert not report.vulnerable

    def test_hardened_device_has_single_fingerprint(self, testbed, universe):
        hardened = harden_device(device_by_name("Fire TV"))
        device = Device(hardened, universe=universe)
        fingerprints = set()
        for connection in device.boot(lambda dest: testbed.server_for(dest)):
            fingerprints.add(fingerprint(connection.attempt.attempts[0].client_hello))
        assert len(fingerprints) == 1

    def test_hardened_device_never_downgrades(self, testbed, universe):
        from repro.core import DowngradeAuditor

        hardened = harden_device(device_by_name("Amazon Echo Dot"))
        device = Device(hardened, universe=universe)
        report = DowngradeAuditor(testbed).audit_device_downgrade(device)
        assert not report.downgrades

    def test_hardened_device_drops_old_versions(self, testbed, universe):
        from repro.core import DowngradeAuditor

        hardened = harden_device(device_by_name("Wemo Plug"))
        device = Device(hardened, universe=universe)
        support = DowngradeAuditor(testbed).audit_device_old_versions(device)
        assert not support.any_old

    def test_hardening_preserves_workload(self):
        original = device_by_name("Fire TV")
        hardened = harden_device(original)
        assert len(hardened.destinations) == len(original.destinations)
        assert {d.hostname for d in hardened.destinations} == {
            d.hostname for d in original.destinations
        }
        assert len(hardened.instances) == 1


# ---------------------------------------------------------------------------
# Ablation: the mitigations against the Table 7 attack surface
# ---------------------------------------------------------------------------

#: The 11 devices Table 7 finds interceptable.
TABLE7_DEVICES = (
    "Zmodo Doorbell",
    "Amcrest Camera",
    "Smarter iKettle",
    "Yi Camera",
    "Wink Hub 2",
    "LG TV",
    "Smartthings Hub",
    "Amazon Echo Plus",
    "Amazon Echo Dot",
    "Amazon Echo Spot",
    "Fire TV",
)


def _interceptable(device, testbed, toolbox, *, pin: bool) -> bool:
    """Does any Table 2 attack establish on any destination, in 4 tries?"""
    for destination in device.profile.destinations:
        for mode in TABLE2_ATTACKS:
            proxy = InterceptionProxy(toolbox=toolbox, mode=mode)
            if pin:
                # A leaf pin protects even a failure-disabled client, so a
                # fresh client per destination is enough.
                instance = device.instance(destination.instance)
                client = PinnedClient(
                    instance.spec.library.client(instance.client_config(38)),
                    pin_leaf(testbed.server_for(destination).chain[0]),
                )
                attempts = (
                    perform_handshake(client, proxy, hostname=destination.hostname, when=WHEN)
                    for _ in range(4)
                )
            else:
                # The device's own instance, so stateful behaviour (the Yi
                # Camera's validation-disable counter) spans the attempts.
                device.power_cycle()
                attempts = (device.connect_destination(destination, proxy) for _ in range(4))
            if any(attempt.established for attempt in attempts):
                return True
    return False


def test_mitigation_ablation_over_table7_devices(testbed, universe):
    """§6: leaf pinning and TLS as an OS service each leave none of the
    11 stock-interceptable devices interceptable."""
    toolbox = AttackerToolbox(issuing_ca=testbed.anchor(0))
    counts = {"stock": 0, "leaf-pinned": 0, "os-tls-service": 0}
    for name in TABLE7_DEVICES:
        stock = testbed.device(name)
        stock.power_cycle()
        counts["stock"] += _interceptable(stock, testbed, toolbox, pin=False)
        stock.power_cycle()
        counts["leaf-pinned"] += _interceptable(stock, testbed, toolbox, pin=True)
        hardened = Device(harden_device(device_by_name(name)), universe=universe)
        counts["os-tls-service"] += _interceptable(hardened, testbed, toolbox, pin=False)
    assert counts == {"stock": 11, "leaf-pinned": 0, "os-tls-service": 0}
