"""Analyses and renderers that regenerate the paper's tables/figures."""

from .attack_scaling import (
    FingerprintTargetedAttacker,
    SharedRiskFinding,
    TargetingOutcome,
    shared_risk_analysis,
)
from .comparison import PriorWorkAccumulator, PriorWorkComparison
from .datasets import DatasetStatistics, DatasetStatisticsAccumulator
from .drift import (
    DriftReport,
    Expectation,
    audit_artifact,
    audit_capture,
    audit_fresh_run,
    load_expectations,
    measure_all,
    measure_analysis,
    measure_capture,
)
from .export import (
    JsonlStreamWriter,
    campaign_to_document,
    capture_from_records,
    capture_from_stream,
    capture_to_document,
    capture_to_records,
    fold_stream,
    probe_report_to_document,
    write_json,
)
from .streaming import TraceAnalysis, TraceAnalysisPipeline, analyze_capture
from .party_bias import (
    PartyBiasResult,
    devices_with_multiple_max_versions,
    test_party_bias,
)
from .poodle import PoodleExposure, assess_poodle_exposure
from .updates import UpdateHygiene, update_vs_store_hygiene
from .revocation import RevocationAccumulator, RevocationSummary
from .staleness import DeviceStaleness, distrusted_trusted_by, staleness_by_device
from .tables import render_table, table1_rows, table3_rows

# Not a pytest case despite the name (the §5.1 bias test).
test_party_bias.__test__ = False  # type: ignore[attr-defined]

__all__ = [
    "DatasetStatistics",
    "DatasetStatisticsAccumulator",
    "DeviceStaleness",
    "DriftReport",
    "Expectation",
    "JsonlStreamWriter",
    "TraceAnalysis",
    "TraceAnalysisPipeline",
    "analyze_capture",
    "audit_artifact",
    "audit_capture",
    "audit_fresh_run",
    "load_expectations",
    "measure_all",
    "measure_analysis",
    "measure_capture",
    "FingerprintTargetedAttacker",
    "SharedRiskFinding",
    "TargetingOutcome",
    "shared_risk_analysis",
    "PartyBiasResult",
    "PoodleExposure",
    "UpdateHygiene",
    "capture_from_records",
    "capture_from_stream",
    "capture_to_document",
    "devices_with_multiple_max_versions",
    "fold_stream",
    "test_party_bias",
    "update_vs_store_hygiene",
    "PriorWorkAccumulator",
    "PriorWorkComparison",
    "RevocationAccumulator",
    "RevocationSummary",
    "assess_poodle_exposure",
    "campaign_to_document",
    "capture_to_records",
    "distrusted_trusted_by",
    "probe_report_to_document",
    "render_table",
    "staleness_by_device",
    "table1_rows",
    "table3_rows",
    "write_json",
]
