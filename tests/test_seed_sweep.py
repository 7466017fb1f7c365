"""Every capture-derived paper cell holds at every seed, not only the default.

The trace seed only reaches the capture through each flow's volume
jitter, so a cell that drifts at some seed sits on a threshold the
jitter can push it across (a Figure 1 residual at exactly 0.05, an
adoption fraction inside the hysteresis band).  The property test
replays whole traces at generated seeds and audits every cell the
capture yields against the packaged expectations.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.analysis.drift import audit, load_expectations, measure_analysis
from repro.analysis.streaming import TraceAnalysisPipeline
from repro.longitudinal import PassiveTraceGenerator
from repro.longitudinal import generator as generator_module
from repro.testbed import CaptureTee, Testbed

_EXPECTATIONS = load_expectations()


def _capture_cells(seed: str, scale: int) -> dict[str, float | int]:
    pipeline = TraceAnalysisPipeline()
    PassiveTraceGenerator(Testbed(), scale=scale, seed=seed).stream_into(
        CaptureTee(pipeline)
    )
    return measure_analysis(pipeline.finalize())


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.text(min_size=1, max_size=12), scale=st.sampled_from([1, 2]))
# Regressions: Roku TV left Figure 1 at seed0 (scale 1) and Samsung
# Fridge gained an insecure-ciphersuite adoption event at seed2 (scale 2).
@example(seed="seed0", scale=1)
@example(seed="seed2", scale=2)
def test_every_capture_cell_holds_at_any_seed(seed, scale):
    measured = _capture_cells(seed, scale)
    report = audit(_EXPECTATIONS, measured)
    audited = {cell.expectation.id for cell in report.cells if cell.status != "skipped"}
    assert audited == set(measured)
    drifted = {cell.expectation.id: cell.actual for cell in report.cells if cell.status == "drift"}
    assert not drifted, (seed, scale, drifted)


class TestFlowJitter:
    """The jitter in ``_flow_count``, read through counts at a scale
    large enough that ``count / scale`` is the jitter to 1e-6."""

    SCALE = 10**6

    @pytest.fixture(scope="class")
    def generators(self):
        testbed = Testbed()
        return {
            seed: PassiveTraceGenerator(testbed, scale=self.SCALE, seed=seed)
            for seed in ("s", "t")
        }

    @given(
        device=st.text(max_size=12),
        hostname=st.text(max_size=20),
        month=st.integers(min_value=0, max_value=40),
    )
    def test_in_range_and_repeatable(self, generators, device, hostname, month):
        count = generators["s"]._flow_count(device, hostname, month, 1.0)
        assert 0.7 <= count / self.SCALE <= 1.3
        assert generators["s"]._flow_count(device, hostname, month, 1.0) == count

    @pytest.mark.parametrize("byte, bound", [(0x00, 0.7), (0xFF, 1.3)])
    def test_extreme_digests_stay_in_range(self, generators, monkeypatch, byte, bound):
        class Digest:
            def digest(self):
                return bytes([byte]) * 8

        monkeypatch.setattr(generator_module, "blake2s", lambda *args, **kwargs: Digest())
        assert generators["s"]._flow_count("d", "h", 0, 1.0) == round(bound * self.SCALE)

    def test_key_fields_are_kept_apart(self, generators):
        s, t = generators["s"], generators["t"]
        base = s._flow_count("Roku TV", "legacy.api.roku.com", 3, 1.0)
        assert s._flow_count("Roku TV", "legacy.api.roku.com", 4, 1.0) != base
        assert t._flow_count("Roku TV", "legacy.api.roku.com", 3, 1.0) != base
        assert s._flow_count("Roku TV", "scribe.logs.roku.com", 3, 1.0) != base
