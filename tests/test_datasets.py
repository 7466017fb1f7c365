"""Tests for the dataset-statistics analysis (§4.1 corpus shape)."""

from __future__ import annotations

import pytest

from repro.analysis import analyze_capture
from repro.testbed.capture import GatewayCapture


class TestDatasetStatistics:
    @pytest.fixture(scope="class")
    def stats(self, passive_analysis):
        return passive_analysis.dataset

    def test_covers_all_devices_and_months(self, stats):
        assert stats.device_count == 40
        assert stats.months_covered == 27

    def test_every_device_at_least_six_months(self, stats):
        assert stats.min_active_months >= 6

    def test_thirty_two_devices_over_a_year(self, stats):
        assert stats.devices_over_12_months == 32

    def test_skew_matches_paper_shape(self, stats):
        """Paper: mean 422K vs median 138K per device (~3.1x skew)."""
        assert 2.0 < stats.mean_to_median_ratio < 5.0

    def test_scale_factor_reported(self, stats):
        assert stats.scale_to_paper > 1
        assert stats.total_connections * stats.scale_to_paper == pytest.approx(17_000_000)

    def test_summary_renders(self, stats):
        text = stats.summary()
        assert "connections from 40 devices" in text
        assert "skew" in text

    def test_empty_capture(self):
        stats = analyze_capture(GatewayCapture()).dataset
        assert stats.total_connections == 0
        assert stats.scale_to_paper == float("inf")
