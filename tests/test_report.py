"""Tests for the markdown report generator."""

from __future__ import annotations

import pytest

from repro.analysis.report import generate_report, write_report


@pytest.fixture(scope="module")
def report_text(testbed, campaign_results, passive_analysis):
    return generate_report(testbed, campaign_results, passive_analysis)


class TestReport:
    def test_headline_table_present(self, report_text):
        assert "# IoTLS reproduction report" in report_text
        assert "| Devices vulnerable to interception | 11 | 11 |" in report_text
        assert "| Probe-amenable devices | 8 | 8 |" in report_text

    def test_all_vulnerable_devices_listed(self, report_text):
        for device in (
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
        ):
            assert device in report_text

    def test_sections_present(self, report_text):
        for heading in (
            "## Interception (Table 7)",
            "## Downgrades (Table 5) and POODLE exposure",
            "## Root stores (Table 9)",
            "## Longitudinal study (Figures 1-3)",
            "## Revocation (Table 8)",
            "## Fingerprints (Figure 5)",
            "## TrafficPassthrough verification (§4.2)",
        ):
            assert heading in report_text, heading

    def test_oldest_staleness_year_reported(self, report_text):
        assert "removed in **2013**" in report_text

    def test_adoption_events_listed(self, report_text):
        assert "Ring Doorbell: establishes forward-secret connections from 4/2018" in report_text
        assert "Apple TV: advertises TLS 1.3 from 5/2019" in report_text

    def test_write_report_creates_file(self, testbed, campaign_results, passive_analysis, tmp_path):
        path = write_report(testbed, campaign_results, passive_analysis, tmp_path / "out" / "R.md")
        assert path.exists()
        assert path.read_text().startswith("# IoTLS reproduction report")
