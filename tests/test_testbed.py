"""Tests for the testbed: cloud servers, capture plumbing, smart plugs."""

from __future__ import annotations

import pytest

from repro.devices import ServerEpoch, ServerSpec, device_by_name
from repro.devices.configs import FS_MODERN, RSA_PLAIN
from repro.pki import utc, validate_chain
from repro.testbed import NotRebootableError, SmartPlug, Testbed, month_of
from repro.tls import ProtocolVersion


class TestMonthConversion:
    @pytest.mark.parametrize(
        "when,month",
        [
            (utc(2018, 1), 0),
            (utc(2018, 12), 11),
            (utc(2019, 7), 18),
            (utc(2020, 3), 26),
            (utc(2021, 3), 38),
        ],
    )
    def test_month_of(self, when, month):
        assert month_of(when) == month

    def test_roundtrip_with_month_to_date(self):
        from repro.devices import month_to_date

        for month in (0, 11, 26, 38):
            assert month_of(month_to_date(month)) == month


class TestCloudServers:
    def test_server_chain_validates_in_device_stores(self, testbed):
        device = testbed.device("Google Home Mini")
        destination = device.profile.destinations[0]
        server = testbed.server_for(destination)
        result = validate_chain(
            list(server.chain),
            device.root_store,
            when=utc(2021, 3),
            hostname=destination.hostname,
        )
        assert result.ok

    def test_server_cached_per_hostname(self, testbed):
        destination = device_by_name("Google Home Mini").destinations[0]
        assert testbed.server_for(destination) is testbed.server_for(destination)

    def test_epoch_timeline_respected(self, testbed):
        spec = ServerSpec(
            timeline=(
                (0, ServerEpoch(versions=(ProtocolVersion.TLS_1_1,), cipher_codes=RSA_PLAIN)),
                (10, ServerEpoch(versions=(ProtocolVersion.TLS_1_2,), cipher_codes=FS_MODERN)),
            )
        )
        assert spec.epoch_at(0).versions == (ProtocolVersion.TLS_1_1,)
        assert spec.epoch_at(9).versions == (ProtocolVersion.TLS_1_1,)
        assert spec.epoch_at(10).versions == (ProtocolVersion.TLS_1_2,)

    def test_staple_served_only_when_requested_and_supported(self, testbed):
        from repro.tls import ClientHello, status_request

        device = testbed.device("Google Home Mini")
        destination = device.profile.destinations[0]  # stapling-capable
        server = testbed.server_for(destination)

        with_request = ClientHello(
            legacy_version=ProtocolVersion.TLS_1_2,
            cipher_codes=FS_MODERN,
            extensions=(status_request(),),
        )
        without_request = ClientHello(
            legacy_version=ProtocolVersion.TLS_1_2, cipher_codes=FS_MODERN
        )
        assert server.respond(with_request, when=utc(2021, 3)).ocsp_staple is not None
        assert server.respond(without_request, when=utc(2021, 3)).ocsp_staple is None

    def test_handshake_failure_alert_on_no_overlap(self, testbed):
        from repro.tls import ClientHello
        from repro.devices.configs import TLS13

        device = testbed.device("Samsung Dryer")
        destination = device.profile.destinations[0]  # TLS 1.0/1.1-only server
        server = testbed.server_for(destination)
        hello = ClientHello(legacy_version=ProtocolVersion.TLS_1_2, cipher_codes=TLS13)
        response = server.respond(hello, when=utc(2021, 3))
        assert response.server_hello is None
        assert response.alert is not None


class TestCaptureRecording:
    def test_record_connection_emits_one_record_per_attempt(self, universe):
        testbed = Testbed(universe)
        device = testbed.device("Apple HomePod")
        from repro.mitm import AttackerToolbox, AttackMode, InterceptionProxy

        proxy = InterceptionProxy(
            toolbox=AttackerToolbox(issuing_ca=testbed.anchor(0)),
            mode=AttackMode.INCOMPLETE_HANDSHAKE,
        )
        destination = device.profile.destinations[0]  # fallback-enabled
        connection = device.connect_destination(destination, proxy)
        records = testbed.record_connection(connection)
        assert len(records) == 2  # original + TLS 1.0 retry
        assert not records[0].downgraded
        assert records[1].downgraded
        assert len(testbed.capture) == 2

    def test_capture_queries(self, universe):
        testbed = Testbed(universe)
        device = testbed.device("D-Link Camera")
        for connection in device.boot(lambda dest: testbed.server_for(dest)):
            testbed.record_connection(connection)
        records = testbed.capture.records
        assert {record.device for record in records} == {"D-Link Camera"}
        assert len(records) == 2


class TestSmartPlug:
    def test_rejects_non_rebootable_devices(self, testbed):
        with pytest.raises(NotRebootableError):
            SmartPlug(testbed.device("Samsung Fridge"))

    def test_reboot_counts_and_returns_connections(self, testbed):
        plug = SmartPlug(testbed.device("Switchbot Hub"))
        connections = plug.reboot(lambda dest: testbed.server_for(dest))
        assert plug.reboot_count == 1
        assert len(connections) == 1
