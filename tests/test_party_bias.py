"""Tests for the §5.1 first/third-party version-bias analysis."""

from __future__ import annotations

import math
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.party_bias import (
    ALPHA,
    MIN_EFFECT_SIZE,
    PartyBiasResult,
    _chi2_independence,
    devices_with_multiple_max_versions,
    test_party_bias as run_party_bias,
)
from repro.devices.profile import Party
from repro.testbed.capture import GatewayCapture, TrafficRecord
from repro.tls import ClientHello, ProtocolVersion

#: Pre-1.3 versions in label order, so a table's rows keep their order.
_VERSIONS = (
    ProtocolVersion.SSL_2_0,
    ProtocolVersion.SSL_3_0,
    ProtocolVersion.TLS_1_0,
    ProtocolVersion.TLS_1_1,
    ProtocolVersion.TLS_1_2,
)


def _capture_from_table(device: str, table: list[list[int]]) -> GatewayCapture:
    """One record per (version row, party column) cell, weighted by it."""
    capture = GatewayCapture()
    for version, row in zip(_VERSIONS, table):
        hello = ClientHello(legacy_version=version, cipher_codes=(0x002F,))
        for party, count in zip((Party.FIRST, Party.THIRD), row):
            capture.add(
                TrafficRecord(
                    device=device,
                    hostname=f"{party.value}.example",
                    party=party,
                    month=0,
                    when=datetime(2019, 1, 1),
                    client_hello=hello,
                    established=True,
                    established_version=version,
                    established_cipher_code=0x002F,
                    client_alert=None,
                    count=count,
                )
            )
    return capture


class TestMultipleMaxVersions:
    def test_version_transition_devices_detected(self, passive_capture):
        devices = devices_with_multiple_max_versions(passive_capture)
        for expected in ("Apple TV", "Apple HomePod", "Google Home Mini", "Blink Hub"):
            assert expected in devices

    def test_static_devices_not_flagged(self, passive_capture):
        devices = devices_with_multiple_max_versions(passive_capture)
        assert "D-Link Camera" not in devices
        assert "Wemo Plug" not in devices


class TestBiasTest:
    def test_no_bias_for_any_study_device(self, passive_capture):
        """The paper: 'no patterns that indicate bias toward one TLS
        version depending on the destination type contacted'."""
        for device in devices_with_multiple_max_versions(passive_capture):
            result = run_party_bias(passive_capture, device)
            assert not result.biased, (device, result.p_value, result.cramers_v)

    def test_inapplicable_without_both_parties(self, passive_capture):
        result = run_party_bias(passive_capture, "Google Home Mini")  # first-party only
        assert result.p_value is None
        assert not result.biased

    def test_synthetic_biased_device_detected(self, passive_capture):
        """Sanity: a device whose versions split cleanly by party IS
        flagged -- the no-bias result above is not vacuous."""
        template = passive_capture.records[0]
        from dataclasses import replace
        from repro.tls import ClientHello, ProtocolVersion, sni

        capture = GatewayCapture()
        hello_12 = ClientHello(
            legacy_version=ProtocolVersion.TLS_1_2,
            cipher_codes=template.client_hello.cipher_codes,
            extensions=(sni("first.example"),),
        )
        hello_10 = ClientHello(
            legacy_version=ProtocolVersion.TLS_1_0,
            cipher_codes=template.client_hello.cipher_codes,
            extensions=(sni("third.example"),),
        )
        for hello, party in ((hello_12, Party.FIRST), (hello_10, Party.THIRD)):
            capture.add(
                replace(
                    template,
                    device="Synthetic Biased",
                    client_hello=hello,
                    party=party,
                    count=500,
                )
            )
        result = run_party_bias(capture, "Synthetic Biased")
        assert result.biased
        # ~1.0 up to the chi-square continuity correction.
        assert result.cramers_v == pytest.approx(1.0, abs=0.01)

    def test_result_table_shape(self, passive_capture):
        result = run_party_bias(passive_capture, "Apple TV")
        assert isinstance(result, PartyBiasResult)
        assert len(result.table) == len(result.versions)
        assert all(len(row) == 2 for row in result.table)

    @pytest.mark.parametrize(
        "table, applicable",
        [([[40, 60], [55, 45], [0, 0]], True), ([[40, 60], [0, 0]], False)],
        ids=["third-version", "second-version"],
    )
    def test_zero_count_version_has_no_row(self, table, applicable):
        """A caller-built capture may hold a ``count=0`` record; its
        version contributes no row instead of a zero expected count."""
        result = run_party_bias(_capture_from_table("Zero Row", table), "Zero Row")
        positive = [row for row in table if sum(row)]
        assert result == run_party_bias(_capture_from_table("Zero Row", positive), "Zero Row")
        assert result.table == tuple(map(tuple, positive))
        assert (result.p_value is not None) is applicable


_CELLS = st.integers(0, 10**5)
#: k x 2 tables, k in 2..5, with any cell (and so any margin) possibly 0.
_TABLES = st.integers(2, 5).flatmap(
    lambda k: st.lists(st.lists(_CELLS, min_size=2, max_size=2), min_size=k, max_size=k)
)
#: 2x2 tables [[a, b], [a + d1, b + d2]] with |d| <= 1: every cell lies
#: within 0.5 of its expected count (|o - e| = |a*d2 - b*d1| / n), so
#: Yates' correction is clamped at |o - e| rather than 0.5.
_NEAR_EXPECTED = st.builds(
    lambda a, b, d1, d2: [[a, b], [a + d1, b + d2]],
    st.integers(1, 10**5),
    st.integers(1, 10**5),
    st.integers(-1, 1),
    st.integers(-1, 1),
)


@pytest.fixture(scope="module")
def scipy_stats():
    return pytest.importorskip("scipy.stats")


@given(table=st.one_of(_TABLES, _NEAR_EXPECTED))
@settings(max_examples=300, deadline=None)
def test_chi2_matches_scipy(scipy_stats, table):
    """The closed-form test agrees with ``scipy.stats.chi2_contingency``."""
    result = run_party_bias(_capture_from_table("Generated", table), "Generated")
    observed = [row for row in table if sum(row)]
    if len(observed) < 2 or not all(map(sum, zip(*observed))):
        assert result.p_value is None and result.cramers_v is None and not result.biased
        return
    chi2, p_value, _dof, _expected = scipy_stats.chi2_contingency(observed)
    cramers_v = math.sqrt(chi2 / sum(map(sum, observed)))
    assert _chi2_independence(observed)[0] == pytest.approx(chi2, rel=1e-9)
    assert result.cramers_v == pytest.approx(cramers_v, rel=1e-9)
    if p_value > 1e-250:
        assert result.p_value == pytest.approx(p_value, rel=1e-9)
    else:
        assert result.p_value < 1e-250
    assert result.biased == (p_value < ALPHA and cramers_v >= MIN_EFFECT_SIZE)
