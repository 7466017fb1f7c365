"""Tests for the passive-trace generator and Figures 1-3 analyses."""

from __future__ import annotations

import pytest

from repro.devices import STUDY_MONTHS, device_by_name
from repro.analysis import analyze_capture
from repro.longitudinal import PassiveTraceGenerator, month_label
from repro.longitudinal.adoption import AdoptionKind
from repro.tls.versions import VersionBand


class TestGenerator:
    def test_deterministic(self, testbed, passive_capture):
        again = PassiveTraceGenerator(testbed, scale=10).generate()
        assert len(again) == len(passive_capture)
        assert sum(r.count for r in again.records) == sum(
            r.count for r in passive_capture.records
        )

    def test_all_forty_devices_present(self, passive_capture):
        assert len({record.device for record in passive_capture.records}) == 40

    def test_activity_windows_respected(self, passive_capture):
        months = {
            record.month
            for record in passive_capture.records
            if record.device == "Blink Camera"
        }
        window = device_by_name("Blink Camera").longitudinal
        assert max(months) == window.last_month
        assert min(months) == window.first_month

    def test_gap_months_skipped(self, passive_capture):
        months = {
            record.month
            for record in passive_capture.records
            if record.device == "LG Dishwasher"
        }
        gaps = device_by_name("LG Dishwasher").longitudinal.gap_months
        assert not (months & gaps)

    def test_destination_activity_override(self, passive_capture):
        months = {
            record.month
            for record in passive_capture.records
            if record.device == "Insteon Hub"
            and record.hostname == "legacy.insteon.com"
        }
        assert months == set(range(6, 20))

    def test_scale_controls_volume(self, testbed):
        small = PassiveTraceGenerator(testbed, scale=5).generate()
        large = PassiveTraceGenerator(testbed, scale=50).generate()
        assert sum(r.count for r in large.records) > 5 * sum(r.count for r in small.records)

    def test_revocation_events_emitted(self, passive_capture):
        devices_with_events = {e.device for e in passive_capture.revocation_events}
        assert "Samsung TV" in devices_with_events
        assert "Apple TV" in devices_with_events


class TestFigure1:
    @pytest.fixture(scope="class")
    def heatmap(self, passive_analysis):
        return passive_analysis.versions

    def test_twelve_devices_shown(self, heatmap):
        assert len(heatmap.shown_devices()) == 12

    def test_twenty_eight_hidden(self, heatmap):
        assert len(heatmap.hidden_devices()) == 28

    def test_wemo_always_older(self, heatmap):
        series = heatmap.advertised[VersionBand.OLDER]["Wemo Plug"]
        assert all(v == 1.0 for v in series.active_values())

    def test_samsung_advertises_12_establishes_older(self, heatmap):
        advertised = heatmap.advertised[VersionBand.TLS_1_2]["Samsung Dryer"]
        established_old = heatmap.established[VersionBand.OLDER]["Samsung Dryer"]
        assert advertised.max_fraction() == 1.0
        assert established_old.max_fraction() == 1.0

    def test_apple_advertises_13_establishes_12(self, heatmap):
        advertised = heatmap.advertised[VersionBand.TLS_1_3]["Apple HomePod"]
        assert advertised.max_fraction() > 0.5  # after 5/2019
        established_13 = heatmap.established[VersionBand.TLS_1_3]["Apple HomePod"]
        assert established_13.max_fraction() == 0.0

    def test_blink_hub_transition_month(self, heatmap):
        series = heatmap.advertised[VersionBand.TLS_1_2]["Blink Hub"]
        assert series.first_month_reaching(0.5) == 6  # 7/2018

    def test_matrix_shape_and_nan_for_gray_cells(self, heatmap):
        table = heatmap.advertised[VersionBand.TLS_1_2]
        rows = [table[device].values for device in heatmap.devices]
        assert len(rows) == 40
        assert all(len(row) == STUDY_MONTHS for row in rows)
        assert table["Blink Camera"].values[20] is None  # after Blink Camera died

    def test_exact_five_percent_non_tls12_is_shown(self):
        """Regression: a device with exactly 5% non-TLS-1.2 traffic sits
        on the figure's threshold and must be shown.  Comparing against
        the float residue ``1 - 0.95`` (0.05000000000000004) with a
        strict ``>`` wrongly hid it."""
        from datetime import datetime, timezone

        from repro.devices.profile import Party
        from repro.testbed.capture import GatewayCapture, TrafficRecord
        from repro.tls import ClientHello, ProtocolVersion

        def record(version: ProtocolVersion, count: int) -> TrafficRecord:
            return TrafficRecord(
                device="Boundary Device",
                hostname="boundary.example.com",
                party=Party.FIRST,
                month=0,
                when=datetime(2018, 1, 15, tzinfo=timezone.utc),
                client_hello=ClientHello(legacy_version=version, cipher_codes=(0x002F,)),
                established=True,
                established_version=ProtocolVersion.TLS_1_2,
                established_cipher_code=0x002F,
                client_alert=None,
                count=count,
            )

        capture = GatewayCapture()
        capture.add(record(ProtocolVersion.TLS_1_2, 19))
        capture.add(record(ProtocolVersion.TLS_1_3, 1))
        heatmap = analyze_capture(capture).versions
        advertised_13 = heatmap.advertised[VersionBand.TLS_1_3]["Boundary Device"]
        assert advertised_13.max_fraction() == 0.05
        assert heatmap.shown_devices() == ["Boundary Device"]


class TestFigure2:
    @pytest.fixture(scope="class")
    def heatmap(self, passive_analysis):
        return passive_analysis.insecure

    def test_thirty_four_advertisers(self, heatmap):
        assert len(heatmap.shown_devices()) == 34

    def test_six_clean_devices(self, heatmap):
        assert set(heatmap.hidden_devices()) == {
            "Nest Thermostat",
            "D-Link Camera",
            "GE Microwave",
            "Switchbot Hub",
            "Behmor Brewer",
            "Sengled Hub",
        }

    def test_blink_hub_drops_weak_ciphers(self, heatmap):
        series = heatmap.series["Blink Hub"]
        assert series.values[15] and series.values[15] > 0.5
        assert series.values[16] == 0.0  # 5/2019

    def test_smartthings_main_instance_drops_weak_ciphers(self, heatmap):
        # 3/2020: the main instance drops its weak suites and the legacy side
        # instance keeps them, so the fraction falls sharply but not to zero.
        series = heatmap.series["Smartthings Hub"]
        assert series.values[25] > 0.65
        assert series.values[26] < 0.35

    def test_established_insecure_only_two_devices(self, passive_capture):
        """Only Wink Hub 2 and LG TV ever *establish* insecure suites."""
        from repro.tls.ciphersuites import REGISTRY

        establishers = set()
        for record in passive_capture.records:
            code = record.established_cipher_code
            if code is not None and REGISTRY[code].is_insecure:
                establishers.add(record.device)
        assert establishers == {"Wink Hub 2", "LG TV"}


class TestFigure3:
    @pytest.fixture(scope="class")
    def heatmap(self, passive_analysis):
        return passive_analysis.strong

    def test_eighteen_always_strong_hidden(self, heatmap):
        assert len(heatmap.hidden_devices()) == 18

    def test_ring_adopts_forward_secrecy_early(self, heatmap):
        series = heatmap.series["Ring Doorbell"]
        assert series.values[2] is not None and series.values[2] < 0.5
        assert series.values[3] is not None and series.values[3] > 0.9

    def test_amazon_mostly_without_fs(self, heatmap):
        series = heatmap.series["Amazon Echo Dot"]
        assert series.max_fraction() < 0.5


class TestAdoptionEvents:
    @pytest.fixture(scope="class")
    def events(self, passive_analysis):
        return passive_analysis.adoption_events

    def _find(self, events, device, kind):
        return [e for e in events if e.device == device and e.kind is kind]

    def test_tls13_adopters(self, events):
        adopters = {
            e.device: e.month
            for e in events
            if e.kind is AdoptionKind.TLS13_ADOPTED
        }
        assert adopters == {"Apple TV": 16, "Apple HomePod": 16, "Google Home Mini": 16}

    def test_blink_hub_tls12_transition(self, events):
        [event] = self._find(events, "Blink Hub", AdoptionKind.TLS12_ADOPTED)
        assert event.month == 6

    def test_weak_cipher_deprecations(self, events):
        droppers = {
            e.device: e.month for e in events if e.kind is AdoptionKind.WEAK_CIPHERS_DROPPED
        }
        assert droppers == {"Blink Hub": 16, "Smartthings Hub": 26}

    def test_apple_tv_weak_cipher_increase(self, events):
        [event] = self._find(events, "Apple TV", AdoptionKind.WEAK_CIPHERS_ADDED)
        assert event.month == 9  # 10/2018

    def test_forward_secrecy_adopters(self, events):
        adopters = {
            e.device: e.month
            for e in events
            if e.kind is AdoptionKind.FORWARD_SECRECY_ADOPTED
        }
        assert adopters == {
            "Ring Doorbell": 3,  # 4/2018
            "Apple TV": 14,  # 3/2019
            "Blink Hub": 21,  # 10/2019
            "Wink Hub 2": 21,  # 10/2019
            "Apple HomePod": 24,  # 1/2020
        }

    def test_month_labels(self):
        assert month_label(0) == "1/2018"
        assert month_label(16) == "5/2019"
        assert month_label(26) == "3/2020"
