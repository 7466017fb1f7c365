"""Spawn-safe worker entry points for the warm pool.

Everything in this module crosses a process boundary: task payloads go
out, result payloads come back, and both must pickle under the ``spawn``
start method (which re-imports :mod:`repro` in a fresh interpreter, so
the worker functions must be importable module-level callables).

Each worker rebuilds its own default :class:`~repro.testbed.Testbed`.
That is safe because the testbed is a pure function of the default CA
universe -- anchors, intermediates, servers, and device stores are all
derived from fixed seeds -- so a worker's handshakes are bit-identical
to the ones the parent process would have performed.  Workers run with
telemetry off and ship home results only.

A trace task is one passive device's name, and its result the device's
:class:`~repro.longitudinal.generator.DeviceReplay`.  Workers keep no
replays: the process holding the pool keeps each one it receives for
the pool's lifetime (:meth:`repro.parallel.pool.WarmWorkerPool.kept`)
and draws every seed's flow counts itself.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CampaignShardTask",
    "CampaignDeviceOutcome",
    "replay_passive_device",
    "run_campaign_shard",
]

#: Per-process caches for pooled workers.  A pool process serves many
#: tasks; the default testbed and the device catalog are pure functions
#: of fixed seeds/data, so rebuilding them per task would cost time and
#: change nothing.
_WORKER_TESTBED = None
_WORKER_PROFILES: dict | None = None


def _passive_profiles() -> dict:
    """The passive-device catalog, keyed by name, cached per process."""
    global _WORKER_PROFILES
    if _WORKER_PROFILES is None:
        from ..devices.catalog import passive_devices

        _WORKER_PROFILES = {profile.name: profile for profile in passive_devices()}
    return _WORKER_PROFILES


def _worker_testbed():
    """The default testbed, built once per worker process and reused.

    A pure function of fixed seeds, so a pooled process serving many
    tasks (or phases) performs bit-identical handshakes with one shared
    instance -- the serial path already audits every device against a
    single testbed.
    """
    global _WORKER_TESTBED
    if _WORKER_TESTBED is None:
        from ..testbed.infrastructure import Testbed

        _WORKER_TESTBED = Testbed()
    return _WORKER_TESTBED


# ----------------------------------------------------------------------
# Passive-trace generation (one task per device)
# ----------------------------------------------------------------------
def replay_passive_device(name: str):
    """The named passive device's
    :class:`~repro.longitudinal.generator.DeviceReplay`, shipped home.

    The replay holds every handshake of the device's trace and no seed,
    scale or flow cap, so one task serves every later trace of the
    process that keeps it.
    """
    from ..longitudinal.generator import PassiveTraceGenerator

    return PassiveTraceGenerator(_worker_testbed()).replay_device(
        _passive_profiles()[name]
    )


# ----------------------------------------------------------------------
# Active-experiment campaign
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignShardTask:
    """One worker's slice of the active-device roster."""

    device_names: tuple[str, ...]
    include_passthrough: bool


@dataclass(frozen=True)
class CampaignDeviceOutcome:
    """Everything the campaign produced for one device.

    The serial campaign iterates phase-by-phase over all devices; a
    worker iterates device-by-device over all phases.  The two orders
    are equivalent because every phase's state is per-device -- the
    parent reassembles the serial phase-major lists from these
    device-major bundles.
    """

    device: str
    interception: object  # DeviceInterceptionReport
    downgrade: object  # DeviceDowngradeReport
    old_versions: object  # OldVersionSupport
    probe_eligible: bool
    probe: object | None  # DeviceProbeReport
    passthrough: object | None  # PassthroughOutcome


def run_campaign_shard(task: CampaignShardTask) -> tuple[CampaignDeviceOutcome, ...]:
    """Run every campaign phase for one shard of active devices."""
    from ..core.downgrade import DowngradeAuditor
    from ..core.interception import InterceptionAuditor
    from ..core.passthrough import PassthroughExperiment
    from ..core.prober import RootStoreProber
    from ..devices.catalog import active_devices

    testbed = _worker_testbed()
    profiles = {profile.name: profile for profile in active_devices()}
    interception_auditor = InterceptionAuditor(testbed)
    downgrade_auditor = DowngradeAuditor(testbed)
    prober = RootStoreProber(testbed)
    experiment = PassthroughExperiment(testbed) if task.include_passthrough else None
    return tuple(
        _campaign_device_outcome(
            profiles[name],
            testbed,
            interception_auditor,
            downgrade_auditor,
            prober,
            experiment,
        )
        for name in task.device_names
    )


def _campaign_device_outcome(
    profile, testbed, interception_auditor, downgrade_auditor, prober, experiment
) -> CampaignDeviceOutcome:
    """All campaign phases for one device (the body of a shard's loop)."""
    from ..mitm.proxy import AttackMode

    device = testbed.device(profile)
    interception = interception_auditor.audit_device(device)
    downgrade = downgrade_auditor.audit_device_downgrade(device)
    old_versions = downgrade_auditor.audit_device_old_versions(device)

    # Probe eligibility per §5.2, evaluated exactly as the serial
    # campaign does -- it only reads this device's own audit.
    eligible = profile.rebootable and not all(
        destination.intercepted_by(AttackMode.NO_VALIDATION)
        for destination in interception.destinations
    )
    probe = prober.probe_device(device) if eligible else None
    passthrough = (
        experiment.run_device(device, interception) if experiment is not None else None
    )
    return CampaignDeviceOutcome(
        device=profile.name,
        interception=interception,
        downgrade=downgrade,
        old_versions=old_versions,
        probe_eligible=eligible,
        probe=probe,
        passthrough=passthrough,
    )
