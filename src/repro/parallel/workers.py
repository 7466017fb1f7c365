"""Spawn-safe worker entry points for the session pool.

Everything in this module crosses a process boundary: task payloads go
out, result payloads come back, and both must pickle under the ``spawn``
start method (which re-imports :mod:`repro` in a fresh interpreter, so
the worker functions must be importable module-level callables).

Each worker rebuilds its own default :class:`~repro.testbed.Testbed`.
That is safe because the testbed is a pure function of the default CA
universe -- anchors, intermediates, servers, and device stores are all
derived from fixed seeds -- so a worker's handshakes are bit-identical
to the ones the parent process would have performed.  Telemetry runs in
the worker's own runtime (enabled to mirror the parent) and is exported
as plain data for the parent to merge, keyed by worker id.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

from .. import telemetry as _telemetry

__all__ = [
    "TraceChunkTask",
    "TraceChunkResult",
    "CampaignShardTask",
    "CampaignDeviceOutcome",
    "CampaignShardResult",
    "run_trace_chunk",
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


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _configure_worker_telemetry(enabled: bool, event_level: str) -> None:
    """Reset this worker's telemetry runtime to mirror the parent's switch.

    Only ever touches a *worker* process's runtime.  Pool processes are
    reused across tasks, so the reset at task start is what turns every
    exported payload into a per-task increment.  When a task runs
    in-process (single-task dispatch), the parent's already-configured
    runtime must be left alone -- resetting it mid-run would wipe the
    coordinator's own counters and spans, and re-exporting it would
    double-count them on merge.
    """
    if not _in_worker():
        return
    _telemetry.configure(enabled=enabled, level=event_level)


def _export_worker_telemetry(
    enabled: bool, worker_id: int, context: object | None = None
) -> dict | None:
    """Export this worker's runtime for the parent to merge.

    Returns ``None`` in-process for the same reason
    :func:`_configure_worker_telemetry` is a no-op there: the task's
    metrics already live in the parent runtime, so merging an export of
    it onto itself would double every total.  The payload names the
    pool process that ran the task, so shard skew is attributed per
    process however many tasks each one served.
    """
    if not enabled or not _in_worker():
        return None
    return _telemetry.get().export_worker_state(
        worker_id, context=context, process=multiprocessing.current_process().name
    )


# ----------------------------------------------------------------------
# Passive-trace generation (one task per device)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceChunkTask:
    """One device's worth of the passive-trace workload.

    ``index`` is the device's catalog position; it doubles as the
    telemetry worker id, so merged worker payloads sort into catalog
    order.
    """

    index: int
    device_name: str
    seed: str
    scale: int
    telemetry: bool
    event_level: str = "info"
    #: The coordinator's propagated trace context (a
    #: ``TraceContext.to_dict()`` document); rides home in the profile
    #: payload so merge stitches this task under the dispatch span.
    trace_context: dict | None = None


@dataclass(frozen=True)
class TraceChunkResult:
    """One device's columnar record chunk, streamed home as one value."""

    index: int
    device: str
    chunk: object  # RecordChunk (records + revocation events, columnar)
    telemetry: dict | None


def run_trace_chunk(task: TraceChunkTask) -> TraceChunkResult:
    """Replay one device and ship its chunk home.

    Chunk tasks run on the session pool, whose processes each serve
    many tasks, so per-task telemetry is reset at task start -- every
    exported payload is then a per-chunk increment and the parent's
    merge sums to exactly the serial totals.  When the task happens to
    run in the parent process, telemetry is neither reset nor exported:
    metrics accrue directly in the parent runtime, which is already
    correct.

    The chunk crosses the process boundary in columnar form -- no
    per-record objects are pickled -- and carries no gateway-ingest
    counts: the parent's terminal sink counts after any flow-cap
    splitting.
    """
    from ..longitudinal.generator import PassiveTraceGenerator

    _configure_worker_telemetry(task.telemetry, task.event_level)
    generator = PassiveTraceGenerator(
        _worker_testbed(), scale=task.scale, seed=task.seed
    )
    with _telemetry.get().tracer.span(
        "chunk.run", worker=task.index, device=task.device_name
    ):
        chunk = generator._device_chunk_instrumented(
            _passive_profiles()[task.device_name]
        )
    payload = _export_worker_telemetry(task.telemetry, task.index, task.trace_context)
    return TraceChunkResult(
        index=task.index,
        device=task.device_name,
        chunk=chunk,
        telemetry=payload,
    )


# ----------------------------------------------------------------------
# Active-experiment campaign
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignShardTask:
    """One worker's slice of the active-device roster."""

    worker_id: int
    device_names: tuple[str, ...]
    include_passthrough: bool
    telemetry: bool
    event_level: str = "info"
    #: See :attr:`TraceChunkTask.trace_context`.
    trace_context: dict | None = None


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


@dataclass(frozen=True)
class CampaignShardResult:
    worker_id: int
    devices: tuple[CampaignDeviceOutcome, ...]
    telemetry: dict | None


def run_campaign_shard(task: CampaignShardTask) -> CampaignShardResult:
    """Run every campaign phase for one shard of active devices."""
    from ..core.downgrade import DowngradeAuditor
    from ..core.interception import InterceptionAuditor
    from ..core.passthrough import PassthroughExperiment
    from ..core.prober import RootStoreProber
    from ..devices.catalog import active_devices

    _configure_worker_telemetry(task.telemetry, task.event_level)
    runtime = _telemetry.get()
    testbed = _worker_testbed()
    profiles = {profile.name: profile for profile in active_devices()}
    interception_auditor = InterceptionAuditor(testbed)
    downgrade_auditor = DowngradeAuditor(testbed)
    prober = RootStoreProber(testbed)
    experiment = PassthroughExperiment(testbed) if task.include_passthrough else None

    outcomes = []
    with runtime.tracer.span(
        "shard.run", worker=task.worker_id, devices=len(task.device_names)
    ):
        outcomes.extend(
            _campaign_device_outcome(
                profiles[name],
                testbed,
                runtime,
                interception_auditor,
                downgrade_auditor,
                prober,
                experiment,
            )
            for name in task.device_names
        )
    return CampaignShardResult(
        worker_id=task.worker_id,
        devices=tuple(outcomes),
        telemetry=_export_worker_telemetry(
            task.telemetry, task.worker_id, task.trace_context
        ),
    )


def _campaign_device_outcome(
    profile, testbed, runtime, interception_auditor, downgrade_auditor, prober, experiment
) -> CampaignDeviceOutcome:
    """All campaign phases for one device (the body of a shard's loop)."""
    from ..mitm.proxy import AttackMode

    device = testbed.device(profile)
    interception = interception_auditor.audit_device(device)
    downgrade = downgrade_auditor.audit_device_downgrade(device)
    old_versions = downgrade_auditor.audit_device_old_versions(device)
    if runtime.enabled:
        runtime.registry.counter(
            "iotls_campaign_devices_total",
            "Devices processed by the active campaign's audit phase.",
        ).inc()

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
