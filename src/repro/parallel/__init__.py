"""Deterministic parallel execution for the heavy pipelines.

``repro.parallel`` runs device-keyed workloads on one session pool of
worker processes and merges the results in catalog order, so a
``workers=N`` run produces byte-identical artifacts to the serial one
(see ``docs/architecture.md`` for the dispatch/merge model and the
determinism argument).
"""

from .pool import WarmWorkerPool, pool_session
from .workers import (
    CampaignDeviceOutcome,
    CampaignShardResult,
    CampaignShardTask,
    TraceChunkResult,
    TraceChunkTask,
    run_campaign_shard,
    run_trace_chunk,
)

__all__ = [
    "WarmWorkerPool",
    "CampaignDeviceOutcome",
    "CampaignShardResult",
    "CampaignShardTask",
    "TraceChunkResult",
    "TraceChunkTask",
    "pool_session",
    "run_campaign_shard",
    "run_trace_chunk",
]
