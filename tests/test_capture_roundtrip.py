"""Round-trip tests: exported capture JSON reloads byte-faithfully."""

from __future__ import annotations

import json

import pytest

from repro.analysis.export import capture_from_records, capture_to_records, write_json


@pytest.fixture(scope="module")
def reloaded(passive_capture):
    return capture_from_records(capture_to_records(passive_capture))


class TestRoundtrip:
    def test_record_counts_preserved(self, passive_capture, reloaded):
        assert len(reloaded) == len(passive_capture)
        assert sum(r.count for r in reloaded.records) == sum(
            r.count for r in passive_capture.records
        )

    def test_hellos_identical(self, passive_capture, reloaded):
        for original, loaded in zip(passive_capture.records, reloaded.records):
            assert loaded.client_hello == original.client_hello
            assert loaded.established_version == original.established_version
            assert loaded.established_cipher_code == original.established_cipher_code
            assert loaded.client_alert == original.client_alert

    def test_analyses_agree_on_loaded_capture(self, passive_capture, reloaded):
        from repro.analysis import analyze_capture

        original, loaded = analyze_capture(passive_capture), analyze_capture(reloaded)
        assert loaded.versions.shown_devices() == original.versions.shown_devices()
        assert loaded.revocation.stapling_devices == original.revocation.stapling_devices
        original_cmp, loaded_cmp = original.comparison, loaded.comparison
        assert loaded_cmp.tls13_fraction == original_cmp.tls13_fraction
        assert loaded_cmp.rc4_fraction == original_cmp.rc4_fraction

    def test_fingerprints_survive(self, passive_capture, reloaded):
        from repro.fingerprint import fingerprint

        originals = {fingerprint(r.client_hello) for r in passive_capture.records[:200]}
        loadeds = {fingerprint(r.client_hello) for r in reloaded.records[:200]}
        assert originals == loadeds

    def test_via_actual_json_file(self, passive_capture, tmp_path):
        path = write_json(capture_to_records(passive_capture)[:100], tmp_path / "cap.json")
        loaded = capture_from_records(json.loads(path.read_text()))
        assert len(loaded) == 100
