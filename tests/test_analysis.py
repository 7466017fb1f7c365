"""Tests for the analysis layer (Tables 1, 3, 8; Figure 4; comparison)."""

from __future__ import annotations

from repro.testbed import GatewayCapture

from repro.analysis import (
    analyze_capture,
    distrusted_trusted_by,
    render_table,
    staleness_by_device,
    table1_rows,
    table3_rows,
)


class TestTable1:
    def test_forty_rows(self):
        assert len(table1_rows()) == 40

    def test_passive_only_marked(self):
        markers = {device: marker for _, device, marker in table1_rows()}
        assert markers["Blink Camera"] == "*"
        assert markers["Blink Hub"] == ""

    def test_category_counts_in_labels(self):
        labels = {category for category, _, _ in table1_rows()}
        assert "Cameras (n = 7)" in labels
        assert "TV (n = 5)" in labels


class TestTable3:
    def test_platform_rows(self, universe):
        rows = {row[0]: row for row in table3_rows(universe)}
        assert rows["Ubuntu"][1] == 9 and rows["Ubuntu"][2] == 2012
        assert rows["Android"][1] == 10 and rows["Android"][2] == 2010
        assert rows["Mozilla"][1] == 47 and rows["Mozilla"][2] == 2013
        assert rows["Microsoft"][1] == 15 and rows["Microsoft"][2] == 2017


class TestTable8:
    def test_paper_exact_device_sets(self, passive_analysis):
        summary = passive_analysis.revocation
        assert summary.crl_devices == ["Samsung TV"]
        assert summary.ocsp_devices == ["Apple HomePod", "Apple TV", "Samsung TV"]
        assert set(summary.stapling_devices) == {
            "Fire TV",
            "Samsung TV",
            "Amazon Echo Spot",
            "Apple HomePod",
            "Apple TV",
            "Harman Invoke",
            "Amazon Echo Dot",
            "Wink Hub 2",
            "Google Home Mini",
            "LG TV",
            "Samsung Fridge",
            "Smartthings Hub",
        }

    def test_twenty_eight_devices_never_check(self, passive_analysis):
        summary = passive_analysis.revocation
        assert len(summary.non_checking_devices) == 28

    def test_rows_render_counts(self, passive_analysis):
        rows = passive_analysis.revocation.table8_rows()
        assert rows[0][1].endswith("(1)")
        assert rows[1][1].endswith("(3)")
        assert rows[2][1].endswith("(12)")


class TestFigure4:
    def test_staleness_only_for_amenable(self, campaign_results, universe):
        staleness = staleness_by_device(campaign_results.probes, universe)
        assert len(staleness) == 8

    def test_histogram_rows_sorted(self, campaign_results, universe):
        for entry in staleness_by_device(campaign_results.probes, universe):
            years = [year for year, _ in entry.histogram_rows()]
            assert years == sorted(years)

    def test_ghm_fewest_stale_roots(self, campaign_results, universe):
        staleness = {
            s.device: s.total_stale
            for s in staleness_by_device(campaign_results.probes, universe)
        }
        assert staleness["Google Home Mini"] == min(staleness.values())

    def test_distrusted_mapping_names_real_cas(self, campaign_results, universe):
        trusted = distrusted_trusted_by(campaign_results.probes, universe)
        all_names = {name for names in trusted.values() for name in names}
        assert all_names <= {
            "TURKTRUST Elektronik Sertifika Hizmet Saglayicisi",
            "CNNIC ROOT",
            "Certification Authority of WoSign",
            "Certinomis - Root CA",
        }


class TestComparison:
    def test_shape_matches_paper(self, passive_analysis):
        comparison = passive_analysis.comparison
        # IoT devices lag the web on TLS 1.3 ...
        assert comparison.tls13_fraction < comparison.web_tls13_fraction / 2
        # ... and vastly exceed it on RC4 advertisement.
        assert comparison.rc4_fraction > comparison.web_rc4_fraction * 4
        assert 0.05 < comparison.tls13_fraction < 0.30
        assert 0.5 < comparison.rc4_fraction < 0.85

    def test_summary_renders(self, passive_analysis):
        text = passive_analysis.comparison.summary()
        assert "TLS 1.3" in text and "RC4" in text

    def test_empty_window(self, passive_capture):
        # Only months before 7/2019: the comparison window holds nothing.
        early = GatewayCapture(
            records=[record for record in passive_capture.records if record.month < 18]
        )
        comparison = analyze_capture(early).comparison
        assert comparison.tls13_fraction == 0.0


class TestRenderTable:
    def test_alignment_and_separator(self):
        text = render_table(["a", "long header"], [("x", 1), ("yy", 22)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", "+"}
        assert all(len(line) == len(lines[0]) for line in lines[1:])
