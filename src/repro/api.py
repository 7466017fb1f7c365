"""The unified run facade: one dispatchable entry point per experiment.

Each experiment is one function of one :class:`RunConfig` --
:func:`run_trace`, :func:`run_audit`, :func:`run_probe`,
:func:`run_report`, :func:`run_pcap`, :func:`run_check` -- registered
as a :class:`CommandSpec` under its CLI name (``trace`` / ``audit`` /
``probe`` / ``report`` / ``pcap`` / ``check``).  :func:`execute`
dispatches to it *by name*, the shape queue consumers and the resident
fleet service (:mod:`repro.serve`) need; a command's extras (artifact
paths, the report's ``progress`` callback) are its function's
keyword-only parameters.

Six of :class:`RunConfig`'s fields travel on the wire:
:meth:`RunConfig.from_document` parses exactly those (the ``POST /runs``
body) and refuses the host-local rest.  Each command's params builder
picks what enters its config digest, so :func:`request_digest` is a
pure function of (command, config) that no host-local field reaches.

Failure modes that the CLI turns into exit codes are typed exceptions
here (:class:`UnknownDeviceError`, :class:`DeviceNotProbeableError`,
:class:`UnknownCommandError`), so programmatic callers can branch on
them.

The passive trace runs as one stream: the generator feeds each
device's chunk through a :class:`~repro.testbed.capture.CaptureTee`
into the incremental analysis pipeline (and optionally a JSONL
writer), so peak memory is bounded by the accumulator state,
independent of ``scale``.  A run is either

* **materialised** (the default): the tee also feeds a staging
  :class:`~repro.testbed.capture.GatewayCapture`, which
  :attr:`TraceResult.capture` holds (and ``--json`` exports), or
* **streaming** (``RunConfig(stream=True)`` or a ``stream_path``): no
  capture is kept.

Both modes read their analysis from the same pipeline, and the tee is
the one stage that counts gateway ingest, so their run manifests are
byte-identical.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterator

from . import telemetry
from .telemetry import DEFAULT_LEDGER_PATH
from .telemetry.provenance import config_digest as _config_digest
from .analysis.export import (
    JsonlStreamWriter,
    campaign_to_document,
    capture_to_document,
    probe_report_to_document,
    write_json,
)
from .analysis.streaming import TraceAnalysis, TraceAnalysisPipeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .parallel import WarmWorkerPool

__all__ = [
    "AuditResult",
    "CheckResult",
    "CommandSpec",
    "DeviceNotProbeableError",
    "PcapResult",
    "ProbeResult",
    "ReportResult",
    "RunConfig",
    "RunError",
    "RunResult",
    "TraceResult",
    "UnknownCommandError",
    "UnknownDeviceError",
    "command_names",
    "command_spec",
    "execute",
    "request_digest",
    "run_audit",
    "run_check",
    "run_pcap",
    "run_probe",
    "run_report",
    "run_trace",
]


# ----------------------------------------------------------------------
# The run configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment run is configured by.

    Fields that a given command does not use are ignored (e.g.
    ``scale`` for ``audit``), so one config can drive a whole session.
    Six fields travel on the wire (:meth:`from_document`): ``scale``,
    ``seed``, ``flow_cap``, ``include_passthrough``, ``device`` and
    ``limit``.  The other four -- ``telemetry``, ``stream``, ``ledger``
    and ``pool`` -- are host-local: they never enter a config digest or
    a run manifest, and a tenant of :mod:`repro.serve` cannot set them.
    """

    #: Connections per unit of destination weight per month.
    scale: int = 40
    #: Passive-trace generator seed (recorded in export metadata).  Only
    #: ``trace`` and ``check`` read it; ``report`` and ``pcap`` always
    #: build the generator's default-seed trace.
    seed: str = "iotls-passive"
    #: Telemetry for this run: every run sets the process-wide runtime to
    #: this switch, zeroed, so no count leaks in from an earlier run.
    telemetry: bool = False
    #: Run the passive trace in streaming mode (bounded memory).
    stream: bool = False
    #: Maximum connections per emitted flow record (None = classic batching).
    flow_cap: int | None = None
    #: Include the audit campaign's passthrough pass.
    include_passthrough: bool = True
    #: Run-ledger file this run appends its ``iotls-run-ledger/1`` entry
    #: to (success and typed failure alike); ``None`` disables ledgering.
    #: The ledger is observability, never provenance: manifests are
    #: byte-identical whether it is on or off.
    ledger: str | Path | None = DEFAULT_LEDGER_PATH
    #: Device under test (``probe`` runs only).
    device: str | None = None
    #: Maximum packets to export (``pcap`` runs only; part of the digest
    #: because it changes the artifact).
    limit: int | None = None
    #: The warm worker pool to shard devices onto (``iotls serve``
    #: passes its resident one); ``None`` runs in-process.  Output is
    #: identical either way.  A pooled run carries no telemetry, so
    #: ``telemetry`` with a pool raises ``ValueError``.
    pool: WarmWorkerPool | None = None

    @classmethod
    def from_document(cls, document: dict[str, Any]) -> "RunConfig":
        """Parse and validate a run-request document (the service's body,
        minus the ``command`` key it routes on).

        Only the six wire fields are accepted.  Unknown keys -- the
        host-local fields among them -- and mistyped values raise
        ``ValueError`` so the service can answer 400 instead of silently
        computing something the client did not ask for.
        """
        if not isinstance(document, dict):
            raise ValueError("run request must be a JSON object")
        known = {
            "scale": int,
            "seed": str,
            "flow_cap": int,
            "include_passthrough": bool,
            "device": str,
            "limit": int,
        }
        unknown = sorted(set(document) - set(known))
        if unknown:
            raise ValueError(f"unknown run-request field(s): {', '.join(unknown)}")
        fields: dict[str, Any] = {}
        for key, kind in known.items():
            if key not in document:
                continue
            value = document[key]
            # bool is an int subclass: reject True where an int is wanted.
            if kind is int and isinstance(value, bool):
                raise ValueError(f"run-request field {key!r} must be an integer")
            if not isinstance(value, kind):
                raise ValueError(
                    f"run-request field {key!r} must be {kind.__name__}, "
                    f"got {type(value).__name__}"
                )
            fields[key] = value
        return cls(**fields)


class RunError(Exception):
    """Base class for typed run failures."""


class UnknownDeviceError(RunError):
    """The requested device is not in the Table 1 catalog."""

    def __init__(self, device: str) -> None:
        super().__init__(f"unknown device {device!r}")
        self.device = device


class DeviceNotProbeableError(RunError):
    """The device exists but cannot be probed (§5.2 eligibility)."""

    def __init__(self, device: str, reason: str) -> None:
        super().__init__(f"{device} {reason}")
        self.device = device
        self.reason = reason


class UnknownCommandError(RunError):
    """The requested command is not in the registry."""

    def __init__(self, command: str) -> None:
        known = ", ".join(command_names())
        super().__init__(f"unknown command {command!r} (known: {known})")
        self.command = command


# ----------------------------------------------------------------------
# Result objects
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceResult:
    """A passive-trace run: analyses, provenance, and exports."""

    analysis: TraceAnalysis
    #: The materialised capture; ``None`` for streaming runs.
    capture: Any | None
    manifest: dict[str, Any]
    manifest_digest: str
    artifacts: dict[str, Path] = field(default_factory=dict)


@dataclass(frozen=True)
class AuditResult:
    """The full active-experiment campaign plus provenance."""

    results: Any  # CampaignResults
    manifest: dict[str, Any]
    manifest_digest: str
    artifacts: dict[str, Path] = field(default_factory=dict)


@dataclass(frozen=True)
class ProbeResult:
    """One device's root-store probe (a Table 9 row)."""

    device: str
    report: Any  # DeviceProbeReport
    #: Explicitly distrusted CAs the device still trusts (amenable runs).
    distrusted_but_trusted: list[str] = field(default_factory=list)
    artifacts: dict[str, Path] = field(default_factory=dict)

    @property
    def amenable(self) -> bool:
        return self.report.calibration.amenable


@dataclass(frozen=True)
class ReportResult:
    """A full markdown-report run."""

    path: Path
    results: Any  # CampaignResults
    analysis: TraceAnalysis
    manifest: dict[str, Any]
    manifest_digest: str
    artifacts: dict[str, Path] = field(default_factory=dict)


@dataclass(frozen=True)
class PcapResult:
    """A pcap export of the passive capture's ClientHellos."""

    path: Path
    packets_written: int
    size_bytes: int
    manifest: dict[str, Any]
    manifest_digest: str
    artifacts: dict[str, Path] = field(default_factory=dict)


@dataclass(frozen=True)
class CheckResult:
    """A paper-drift audit run (the ``iotls check`` fresh-run path)."""

    report: Any  # DriftReport
    ok: bool
    #: Expectation ids of the drifted cells (empty when healthy).
    drifted: list[str] = field(default_factory=list)
    cells: int = 0


#: Everything :func:`execute` can return -- the typed result union the
#: registry dispatches into.
RunResult = (
    TraceResult | AuditResult | ProbeResult | ReportResult | PcapResult | CheckResult
)


# ----------------------------------------------------------------------
# The command registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CommandSpec:
    """One dispatchable experiment: its runner plus the metadata queue
    consumers and the fleet service route on declaratively (instead of
    a per-command branch)."""

    name: str
    #: ``runner(config, **extras) -> RunResult``.
    runner: Callable[..., "RunResult"]
    #: Digest-params builder: the exact dict hashed into the config
    #: digest (and recorded in the manifest/ledger) for this command.
    params: Callable[[RunConfig], dict[str, Any]]
    #: The runner's keyword-only parameters: host-local arguments
    #: (artifact paths, notification callbacks), never on the wire.
    extras: frozenset[str] = frozenset()
    #: Whether successful runs carry a manifest digest -- the
    #: requirement for content-addressed result caching.
    cacheable: bool = True
    #: Artifact role whose bytes *are* the run's body (``trace`` ->
    #: ``records_jsonl``); None means results are envelope-only.
    stream_role: str | None = None


_COMMANDS: dict[str, CommandSpec] = {}


def _register(
    name: str,
    *,
    params: Callable[[RunConfig], dict[str, Any]],
    cacheable: bool = True,
    stream_role: str | None = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a runner under ``name`` (module-import time, fixed order)."""

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        parameters = inspect.signature(fn).parameters.values()
        _COMMANDS[name] = CommandSpec(
            name=name,
            runner=fn,
            params=params,
            extras=frozenset(p.name for p in parameters if p.kind is p.KEYWORD_ONLY),
            cacheable=cacheable,
            stream_role=stream_role,
        )
        return fn

    return decorate


def command_names() -> tuple[str, ...]:
    """Every registered command, sorted (the dispatchable surface)."""
    return tuple(sorted(_COMMANDS))


def command_spec(command: str) -> CommandSpec:
    """The registry entry for ``command`` (raises
    :class:`UnknownCommandError` for names outside the registry)."""
    try:
        return _COMMANDS[command]
    except KeyError:
        raise UnknownCommandError(command) from None


def request_digest(command: str, config: RunConfig) -> str:
    """The config digest a run of ``command`` under ``config`` will
    record -- the content address of the computation.  Pure function of
    (command, the config's wire fields, package version), so cache
    lookups can happen before any work is dispatched."""
    from . import __version__

    return _config_digest(command, command_spec(command).params(config), __version__)


def execute(command: str, config: RunConfig = RunConfig(), **extras: Any) -> RunResult:
    """Dispatch one run by command name through the registry.

    ``extras`` are the command's host-local keyword arguments (artifact
    paths, the report's ``progress`` callback); unknown ones raise
    ``TypeError`` -- they are a caller bug, not a run outcome.
    """
    spec = command_spec(command)
    unknown = sorted(set(extras) - set(spec.extras))
    if unknown:
        raise TypeError(
            f"execute({command!r}) got unexpected keyword argument(s): "
            f"{', '.join(unknown)} (accepted: {', '.join(sorted(spec.extras))})"
        )
    return spec.runner(config, **extras)


# ----------------------------------------------------------------------
# Digest-params builders (shared by runners, manifests, and the cache)
# ----------------------------------------------------------------------
def _trace_params(config: RunConfig) -> dict[str, Any]:
    params: dict[str, Any] = {"scale": config.scale, "seed": config.seed}
    if config.flow_cap is not None:
        params["flow_cap"] = config.flow_cap
    return params


def _audit_params(config: RunConfig) -> dict[str, Any]:
    return {"include_passthrough": config.include_passthrough}


def _probe_params(config: RunConfig) -> dict[str, Any]:
    return {"device": config.device}


def _report_params(config: RunConfig) -> dict[str, Any]:
    return {"scale": config.scale}


def _pcap_params(config: RunConfig) -> dict[str, Any]:
    return {"scale": config.scale, "limit": config.limit}


def _check_params(config: RunConfig) -> dict[str, Any]:
    # `artifact` is None for a fresh run; an artifact audit records the
    # artifact's path there instead (see `run_check`).
    return {"scale": config.scale, "seed": config.seed, "artifact": None}


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _workers(config: RunConfig) -> int:
    """Processes a run's work spans: the pool's size, or 1 in-process."""
    return config.pool.workers if config.pool is not None else 1


def _configure_telemetry(config: RunConfig) -> None:
    """Switch the process-wide runtime to ``config.telemetry``, zeroed:
    a run's counts are its own, whatever ran before it in the process."""
    # Refuse before any artifact is opened; the pool itself refuses
    # dispatch under telemetry for callers that bypass this facade.
    if config.telemetry and config.pool is not None:
        raise ValueError("pooled runs carry no telemetry: drop telemetry or the pool")
    telemetry.configure(enabled=config.telemetry)


class _LedgerNote:
    """What one run body reports to its ledger entry.

    The run functions fill this in as evidence becomes available --
    manifest + digest once built, artifacts, per-phase wall times -- and
    :func:`_ledger_session` folds it (with the pool's reuse stats) into
    the final ``iotls-run-ledger/1`` entry on exit.
    """

    def __init__(self) -> None:
        self.manifest: dict[str, Any] | None = None
        self.manifest_digest: str | None = None
        self.artifacts: dict[str, Path] = {}
        self.phases: dict[str, float] = {}

    def record(
        self,
        *,
        manifest: dict[str, Any] | None = None,
        manifest_digest: str | None = None,
        artifacts: dict[str, Path] | None = None,
    ) -> None:
        if manifest is not None:
            self.manifest = manifest
        if manifest_digest is not None:
            self.manifest_digest = manifest_digest
        if artifacts:
            self.artifacts = dict(artifacts)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one named phase of the run (monotonic, never a manifest)."""
        started = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - started
            self.phases[name] = self.phases.get(name, 0.0) + elapsed


@contextmanager
def _ledger_session(
    config: RunConfig, command: str, params: dict[str, Any]
) -> Iterator[_LedgerNote]:
    """Append exactly one run-ledger entry per run invocation.

    Success appends a ``status: "ok"`` entry carrying everything the
    body noted; a typed :class:`RunError` appends a ``status: "error"``
    entry (same config digest, so failures index by configuration too)
    and re-raises.  Other exceptions -- programming errors like the
    stream/json conflict -- are not run outcomes and stay unledgered.
    With ``config.ledger=None`` the note is still yielded (the body
    stays branch-free) and nothing is written.
    """
    note = _LedgerNote()
    started = perf_counter()
    try:
        yield note
    except RunError as exc:
        if config.ledger is not None:
            telemetry.append_entry(
                telemetry.build_entry(
                    command,
                    params=params,
                    status="error",
                    workers=_workers(config),
                    seconds=perf_counter() - started,
                    error=exc,
                ),
                config.ledger,
            )
        raise
    if config.ledger is None:
        return
    telemetry.append_entry(
        telemetry.build_entry(
            command,
            params=params,
            workers=_workers(config),
            seconds=perf_counter() - started,
            phases=note.phases or None,
            pool=config.pool.stats() if config.pool is not None else None,
            manifest=note.manifest,
            manifest_digest=note.manifest_digest,
            artifacts=note.artifacts or None,
        ),
        config.ledger,
    )


def _build_manifest(
    command: str, params: dict[str, Any], artifacts: dict[str, Path]
) -> tuple[dict[str, Any], str]:
    manifest = telemetry.build_manifest(
        command,
        params=params,
        artifacts=artifacts or None,
        registry=telemetry.get_registry() if telemetry.enabled() else None,
    )
    return manifest, telemetry.manifest_digest(manifest)


# ----------------------------------------------------------------------
# Registered runners
# ----------------------------------------------------------------------
@_register("trace", params=_trace_params, stream_role="records_jsonl")
def run_trace(
    config: RunConfig = RunConfig(),
    *,
    json_path: str | Path | None = None,
    stream_path: str | Path | None = None,
) -> TraceResult:
    """Generate the 27-month passive capture and run every analysis.

    ``json_path`` exports the materialised document artifact;
    ``stream_path`` exports the JSONL stream artifact (and implies
    streaming mode, as does ``config.stream``).  The two exports are
    mutually exclusive: a streaming run never materialises the capture
    the document shape requires.
    """
    from .longitudinal import PassiveTraceGenerator
    from .testbed.capture import CaptureTee, GatewayCapture

    _configure_telemetry(config)
    streaming = config.stream or stream_path is not None
    if streaming and json_path is not None:
        raise ValueError(
            "streaming runs export JSONL via stream_path; "
            "the JSON document export requires the materialised path"
        )
    generator = PassiveTraceGenerator(
        scale=config.scale, seed=config.seed, flow_cap=config.flow_cap
    )
    artifacts: dict[str, Path] = {}
    with _ledger_session(config, "trace", _trace_params(config)) as note:
        pipeline = TraceAnalysisPipeline()
        sinks: list[Any] = [pipeline]
        writer = capture = None
        if stream_path is not None:
            metadata = {"generator": "iotls trace", **_trace_params(config)}
            writer = JsonlStreamWriter(stream_path, metadata=metadata)
            sinks.append(writer)
        if not streaming:
            # A materialised run is a stream with a staging capture.
            capture = GatewayCapture(counted=False)
            sinks.append(capture)
        # The tee is the single counting stage of the chain, so the
        # manifest's metrics are the same in both modes.
        try:
            generator.stream_into(CaptureTee(*sinks), pool=config.pool)
        finally:
            if writer is not None:
                writer.close()
        analysis = pipeline.finalize()
        if writer is not None:
            artifacts["records_jsonl"] = writer.path
        if json_path is not None:
            document = capture_to_document(
                capture,
                metadata={
                    "generator": "iotls trace",
                    "seed": config.seed,
                    "scale": config.scale,
                    **(
                        {"flow_cap": config.flow_cap}
                        if config.flow_cap is not None
                        else {}
                    ),
                    "flow_records": analysis.flow_records,
                    "connections": analysis.connections,
                },
            )
            artifacts["records_json"] = write_json(document, json_path)
        manifest, digest = _build_manifest("trace", _trace_params(config), artifacts)
        note.record(manifest=manifest, manifest_digest=digest, artifacts=artifacts)
        return TraceResult(
            analysis=analysis,
            capture=capture,
            manifest=manifest,
            manifest_digest=digest,
            artifacts=artifacts,
        )


@_register("audit", params=_audit_params)
def run_audit(
    config: RunConfig = RunConfig(), *, json_path: str | Path | None = None
) -> AuditResult:
    """Run the full active-experiment campaign (Tables 5/6/7/9)."""
    from .core import ActiveExperimentCampaign

    _configure_telemetry(config)
    params = _audit_params(config)
    with _ledger_session(config, "audit", params) as note:
        results = ActiveExperimentCampaign().run(
            include_passthrough=config.include_passthrough, pool=config.pool
        )
        artifacts: dict[str, Path] = {}
        if json_path is not None:
            artifacts["campaign_json"] = write_json(
                campaign_to_document(results), json_path
            )
        manifest, digest = _build_manifest("audit", params, artifacts)
        note.record(manifest=manifest, manifest_digest=digest, artifacts=artifacts)
        return AuditResult(
            results=results,
            manifest=manifest,
            manifest_digest=digest,
            artifacts=artifacts,
        )


@_register(
    "probe",
    params=_probe_params,
    cacheable=False,  # probe runs record no manifest digest
)
def run_probe(config: RunConfig, *, json_path: str | Path | None = None) -> ProbeResult:
    """Probe ``config.device``'s root store (a Table 9 row).

    Raises :class:`UnknownDeviceError` for names outside the catalog and
    :class:`DeviceNotProbeableError` for devices the methodology cannot
    probe (non-rebootable or passive-only).  A device that *can* be
    probed but turns out non-amenable is a normal result
    (``ProbeResult.amenable`` is False).
    """
    from .core import RootStoreProber
    from .devices import device_by_name
    from .testbed import Testbed

    if config.device is None:
        raise ValueError("probe runs need RunConfig.device")
    device = config.device
    _configure_telemetry(config)
    with _ledger_session(config, "probe", _probe_params(config)) as note:
        try:
            profile = device_by_name(device)
        except KeyError:
            raise UnknownDeviceError(device) from None
        if not profile.rebootable:
            raise DeviceNotProbeableError(
                profile.name, "is not suitable for repeated reboots"
            )
        if not profile.active:
            raise DeviceNotProbeableError(
                profile.name, "was passive-only (no active experiments)"
            )
        testbed = Testbed()
        report = RootStoreProber(testbed).probe_device(testbed.device(profile))
        distrusted: list[str] = []
        artifacts: dict[str, Path] = {}
        if report.calibration.amenable:
            present = set(report.present_deprecated_names())
            distrusted = [
                record.name
                for record in testbed.universe.distrusted_records()
                if record.name in present
            ]
            if json_path is not None:
                artifacts["probe_json"] = write_json(
                    probe_report_to_document(report), json_path
                )
        note.record(artifacts=artifacts)
        return ProbeResult(
            device=profile.name,
            report=report,
            distrusted_but_trusted=distrusted,
            artifacts=artifacts,
        )


@_register("report", params=_report_params)
def run_report(
    config: RunConfig = RunConfig(),
    *,
    out: str | Path = "REPORT.md",
    progress: Callable[[str], None] | None = None,
) -> ReportResult:
    """Run everything and write the full markdown report.

    ``progress`` receives coarse phase announcements (the CLI prints
    them); pass ``None`` for a silent run.
    """
    from .analysis.report import write_report
    from .core import ActiveExperimentCampaign
    from .longitudinal import PassiveTraceGenerator
    from .testbed import CaptureTee, Testbed

    _configure_telemetry(config)
    notify = progress or (lambda message: None)
    testbed = Testbed()
    # The report's digest holds no seed: always the default one.
    generator = PassiveTraceGenerator(testbed, scale=config.scale)
    with _ledger_session(config, "report", _report_params(config)) as note:
        notify("running active campaign...")
        with note.phase("campaign"):
            results = ActiveExperimentCampaign(testbed).run(pool=config.pool)
        notify("generating passive trace...")
        with note.phase("trace"):
            pipeline = TraceAnalysisPipeline()
            generator.stream_into(CaptureTee(pipeline), pool=config.pool)
            analysis = pipeline.finalize()
        with note.phase("render"):
            path = write_report(testbed, results, analysis, out)
        artifacts = {"report_md": path}
        manifest, digest = _build_manifest("report", _report_params(config), artifacts)
        note.record(manifest=manifest, manifest_digest=digest, artifacts=artifacts)
        return ReportResult(
            path=path,
            results=results,
            analysis=analysis,
            manifest=manifest,
            manifest_digest=digest,
            artifacts=artifacts,
        )


@_register("pcap", params=_pcap_params)
def run_pcap(
    config: RunConfig = RunConfig(), *, out: str | Path = "iotls.pcap"
) -> PcapResult:
    """Export the passive capture's ClientHellos as a pcap file
    (``config.limit`` caps the packet count)."""
    from .longitudinal import PassiveTraceGenerator
    from .testbed.pcap import write_pcap

    limit = config.limit
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0 or None, got {limit}")
    _configure_telemetry(config)
    params = _pcap_params(config)
    # The pcap's digest holds no seed: always the default one.
    generator = PassiveTraceGenerator(scale=config.scale)
    with _ledger_session(config, "pcap", params) as note:
        capture = generator.generate(pool=config.pool)
        path = write_pcap(capture, out, limit=limit)
        packets = limit if limit is not None else len(capture)
        artifacts = {"pcap": path}
        manifest, digest = _build_manifest("pcap", params, artifacts)
        note.record(manifest=manifest, manifest_digest=digest, artifacts=artifacts)
        return PcapResult(
            path=path,
            packets_written=min(packets, len(capture)),
            size_bytes=path.stat().st_size,
            manifest=manifest,
            manifest_digest=digest,
            artifacts=artifacts,
        )


@_register(
    "check",
    params=_check_params,
    cacheable=False,  # the drift verdict carries no manifest
)
def run_check(
    config: RunConfig = RunConfig(),
    *,
    expected_path: str | Path | None = None,
    artifact_path: str | Path | None = None,
) -> CheckResult:
    """Audit a fresh run against the paper's published values (the
    ``iotls check`` path), or with ``artifact_path`` an exported trace
    artifact (capture-derived cells only)."""
    from .analysis.drift import audit_artifact, audit_fresh_run

    _configure_telemetry(config)
    params = _check_params(config)
    if artifact_path is not None:
        report = audit_artifact(artifact_path, expectations_path=expected_path)
        params["artifact"] = str(artifact_path)
    else:
        report = audit_fresh_run(
            scale=config.scale,
            seed=config.seed,
            pool=config.pool,
            expectations_path=expected_path,
        )
    drifted = sorted(cell.expectation.id for cell in report.drifted)
    if config.ledger is not None:
        # The drift verdict is run history worth querying later: `iotls
        # runs list --status error` surfaces past drifts per host.
        telemetry.append_entry(
            telemetry.build_entry(
                "check",
                kind="check",
                status="ok" if report.ok else "error",
                params=params,
                workers=_workers(config),
                drift={"ok": report.ok, "drifted": drifted, "cells": len(report.cells)},
                error=(
                    None
                    if report.ok
                    else {
                        "type": "DriftDetected",
                        "message": f"{len(drifted)} cell(s) deviate",
                    }
                ),
            ),
            config.ledger,
        )
    return CheckResult(
        report=report, ok=report.ok, drifted=drifted, cells=len(report.cells)
    )
