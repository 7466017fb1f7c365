"""Deterministic parallel execution for the heavy pipelines.

``repro.parallel`` runs device-keyed workloads on a resident
:class:`WarmWorkerPool` and merges the results in catalog order, so a
pooled run produces byte-identical artifacts to the serial one.  Only
``iotls serve`` holds a pool (see ``docs/architecture.md`` for the
dispatch/merge model and the determinism argument).
"""

from .pool import WarmWorkerPool
from .workers import (
    CampaignDeviceOutcome,
    CampaignShardTask,
    TraceChunkTask,
    run_campaign_shard,
    run_trace_chunk,
)

__all__ = [
    "WarmWorkerPool",
    "CampaignDeviceOutcome",
    "CampaignShardTask",
    "TraceChunkTask",
    "run_campaign_shard",
    "run_trace_chunk",
]
