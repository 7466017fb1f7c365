"""Deterministic parallel execution for the heavy pipelines.

``repro.parallel`` runs device-keyed workloads on a resident
:class:`WarmWorkerPool` and merges the results in catalog order, so a
pooled run produces byte-identical artifacts to the serial one; a worker
that dies fails the run with :class:`repro.api.WorkerCrashed`.  Only
``iotls serve`` holds a pool (see ``docs/architecture.md``).
"""

from .pool import WarmWorkerPool
from .workers import (
    CampaignDeviceOutcome,
    CampaignShardTask,
    replay_passive_device,
    run_campaign_shard,
)

__all__ = [
    "WarmWorkerPool",
    "CampaignDeviceOutcome",
    "CampaignShardTask",
    "replay_passive_device",
    "run_campaign_shard",
]
