"""Shared fixtures for the IoTLS reproduction test suite.

Expensive artifacts (the testbed, the passive capture, the full active
campaign) are session-scoped: they are deterministic, read-only for
consumers, and building them once keeps the suite fast.
"""

from __future__ import annotations

import pytest

from repro.analysis import TraceAnalysis, analyze_capture
from repro.core import ActiveExperimentCampaign, CampaignResults
from repro.longitudinal import PassiveTraceGenerator
from repro.parallel import WarmWorkerPool
from repro.pki import CertificateAuthority, DistinguishedName, RootStore
from repro.roothistory import build_default_universe
from repro.testbed import GatewayCapture, Testbed


@pytest.fixture(scope="session")
def universe():
    return build_default_universe()


@pytest.fixture(scope="session")
def testbed(universe) -> Testbed:
    return Testbed(universe)


@pytest.fixture(scope="session")
def passive_capture(testbed) -> GatewayCapture:
    return PassiveTraceGenerator(testbed, scale=10).generate()


@pytest.fixture(scope="session")
def passive_analysis(passive_capture) -> TraceAnalysis:
    """Every passive-trace analysis of ``passive_capture`` (the per-record fold)."""
    return analyze_capture(passive_capture)


@pytest.fixture(scope="session")
def campaign_results(testbed) -> CampaignResults:
    return ActiveExperimentCampaign(testbed).run(include_passthrough=True)


@pytest.fixture(scope="session")
def worker_pool():
    """``worker_pool(n)``: a warm pool of ``n`` processes, or ``None`` for
    ``n == 1`` (the in-process path).  Each size opens once and is shared
    by the whole session, as ``iotls serve`` shares its resident pool."""
    pools: dict[int, WarmWorkerPool] = {}

    def get(workers: int) -> WarmWorkerPool | None:
        if workers == 1:
            return None
        if workers not in pools:
            pools[workers] = WarmWorkerPool(workers)
        return pools[workers]

    yield get
    for pool in pools.values():
        pool.close()


@pytest.fixture()
def simple_ca() -> CertificateAuthority:
    return CertificateAuthority(
        DistinguishedName(common_name="Unit Test Root CA", organization="UnitTest"),
        seed=b"unit-test-root",
    )


@pytest.fixture()
def simple_store(simple_ca) -> RootStore:
    return RootStore.from_certificates("unit-test", [simple_ca.certificate])
