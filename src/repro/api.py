"""The unified run facade: one dispatchable entry point per experiment.

Two layers make up the facade:

* **The command registry.**  Every experiment is registered as a
  :class:`CommandSpec` under its CLI name (``trace`` / ``audit`` /
  ``probe`` / ``report`` / ``pcap`` / ``check``) and dispatched through
  :func:`execute`, which takes the command *by name* -- the shape queue
  consumers and the resident fleet service (:mod:`repro.serve`) need.
  The classic ``run_*`` functions remain as thin typed wrappers over
  the registry, so existing callers keep their signatures.
* **The request/options split.**  :class:`RunRequest` holds exactly the
  fields hashed into a run's *config digest* (device, scale, seed,
  flow cap, ...) and round-trips JSON via
  :meth:`RunRequest.from_document` / :meth:`RunRequest.to_document` --
  it is the wire format of a dispatchable run.  :class:`ExecutionOptions`
  holds the host-local knobs (workers, warm pool, ledger path,
  telemetry/progress sinks) that never enter a digest or a manifest.
  :class:`RunConfig` composes the two and stays the convenient
  single-object configuration for library callers.

Failure modes that the CLI turns into exit codes are typed exceptions
here (:class:`UnknownDeviceError`, :class:`DeviceNotProbeableError`,
:class:`UnknownCommandError`), so programmatic callers can branch on
them.

The passive trace runs in one of two modes:

* **materialised** (the default): records accumulate in a
  :class:`~repro.testbed.capture.GatewayCapture`, then every analysis
  folds over it -- and :attr:`TraceResult.capture` holds the capture,
* **streaming** (``RunConfig(stream=True)`` or a ``stream_path``): the
  generator feeds each record straight into the incremental analysis
  pipeline (and optionally a JSONL writer), so peak memory is bounded
  by the accumulator state, independent of ``scale``.

Both modes produce byte-identical run manifests: the analysis results
are equal by construction (the batch path folds through the same
accumulators) and the manifest's metrics slice only keeps deterministic
series that both modes count identically.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

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
from .analysis.streaming import TraceAnalysis, TraceAnalysisPipeline, analyze_capture
from .parallel import pool_session

__all__ = [
    "AuditResult",
    "CheckResult",
    "CommandSpec",
    "DeviceNotProbeableError",
    "ExecutionOptions",
    "PcapResult",
    "ProbeResult",
    "ReportResult",
    "RunConfig",
    "RunError",
    "RunRequest",
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
# The dispatchable request (the serializable half of a run)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunRequest:
    """What a run computes: exactly the fields hashed into its config
    digest, and nothing host-local.

    Two requests with equal fields name the same deterministic
    computation -- :func:`request_digest` is a pure function of this
    object plus the command name and package version, which is what
    makes the run ledger's ``config_digest`` index (and the fleet
    service's result cache on top of it) content-addressed.

    The JSON document shape (:meth:`to_document` / :meth:`from_document`)
    is the ``POST /runs`` body of :mod:`repro.serve`, minus the
    ``command`` key the service routes on.
    """

    #: Connections per unit of destination weight per month.
    scale: int = 40
    #: Passive-trace generator seed (recorded in export metadata).
    seed: str = "iotls-passive"
    #: Maximum connections per emitted flow record (None = classic batching).
    flow_cap: int | None = None
    #: Include the audit campaign's passthrough pass.
    include_passthrough: bool = True
    #: Device under test (``probe`` runs only).
    device: str | None = None
    #: Maximum packets to export (``pcap`` runs only; part of the digest
    #: because it changes the artifact).
    limit: int | None = None

    def to_document(self) -> dict[str, Any]:
        """The JSON-serializable request document (None fields omitted)."""
        document: dict[str, Any] = {
            "scale": self.scale,
            "seed": self.seed,
            "include_passthrough": self.include_passthrough,
        }
        if self.flow_cap is not None:
            document["flow_cap"] = self.flow_cap
        if self.device is not None:
            document["device"] = self.device
        if self.limit is not None:
            document["limit"] = self.limit
        return document

    @classmethod
    def from_document(cls, document: dict[str, Any]) -> "RunRequest":
        """Parse and validate a request document (the service's body).

        Unknown keys and mistyped values raise ``ValueError`` so the
        service can answer 400 instead of silently computing something
        the client did not ask for.
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


@dataclass(frozen=True)
class ExecutionOptions:
    """How (and where) a run executes: the host-local half of a config.

    Nothing here enters a config digest or a run manifest -- two hosts
    executing the same :class:`RunRequest` under different options
    produce byte-identical manifests.  This is the half the fleet
    service pins server-side while tenants only supply requests.
    """

    #: Worker processes for device sharding; output is identical for any N.
    workers: int = 1
    #: Enable the telemetry subsystem for this run.
    telemetry: bool = False
    #: Run the passive trace in streaming mode (bounded memory).
    stream: bool = False
    #: Emit throttled live-progress lines (implies telemetry).
    progress: bool = False
    #: Seconds between progress heartbeats / resource samples.
    heartbeat_interval: float = 1.0
    #: Run-ledger file this run appends its entry to (None disables).
    ledger: str | Path | None = DEFAULT_LEDGER_PATH
    #: Where rendered progress lines go (default: stderr when
    #: ``progress`` is set).  The serve layer points this at its access
    #: log so per-run heartbeats land in one server-wide stream.
    progress_stream: Callable[[str], None] | None = None


@dataclass(frozen=True)
class RunConfig:
    """Shared knobs for every experiment run: one convenient object
    composing a :class:`RunRequest` with :class:`ExecutionOptions`.

    Fields that a given command does not use are ignored (e.g.
    ``scale`` for ``audit``), so one config can drive a whole session.
    :attr:`request` / :attr:`options` split the config into its
    serializable and host-local halves; :meth:`merge` recombines them
    (the fleet service's path: wire request + server options).
    """

    #: Connections per unit of destination weight per month.
    scale: int = 40
    #: Passive-trace generator seed (recorded in export metadata).
    seed: str = "iotls-passive"
    #: Worker processes for device sharding; output is identical for any N.
    workers: int = 1
    #: Enable the telemetry subsystem for this run.
    telemetry: bool = False
    #: Run the passive trace in streaming mode (bounded memory).
    stream: bool = False
    #: Maximum connections per emitted flow record (None = classic batching).
    flow_cap: int | None = None
    #: Include the audit campaign's passthrough pass.
    include_passthrough: bool = True
    #: Emit throttled live-progress lines to stderr (implies telemetry).
    progress: bool = False
    #: Seconds between progress heartbeats / resource samples.
    heartbeat_interval: float = 1.0
    #: Run-ledger file this run appends its ``iotls-run-ledger/1`` entry
    #: to (success and typed failure alike); ``None`` disables ledgering.
    #: The ledger is observability, never provenance: manifests are
    #: byte-identical whether it is on or off.
    ledger: str | Path | None = DEFAULT_LEDGER_PATH
    #: Device under test (``probe``; the ``run_probe`` wrapper fills it).
    device: str | None = None
    #: Maximum packets to export (``pcap``).
    limit: int | None = None
    #: Progress-line sink override (see :class:`ExecutionOptions`).
    progress_stream: Callable[[str], None] | None = None

    @property
    def request(self) -> RunRequest:
        """The serializable half: what this config asks to compute."""
        return RunRequest(
            scale=self.scale,
            seed=self.seed,
            flow_cap=self.flow_cap,
            include_passthrough=self.include_passthrough,
            device=self.device,
            limit=self.limit,
        )

    @property
    def options(self) -> ExecutionOptions:
        """The host-local half: how this config executes."""
        return ExecutionOptions(
            workers=self.workers,
            telemetry=self.telemetry,
            stream=self.stream,
            progress=self.progress,
            heartbeat_interval=self.heartbeat_interval,
            ledger=self.ledger,
            progress_stream=self.progress_stream,
        )

    @classmethod
    def merge(
        cls, request: RunRequest, options: ExecutionOptions = ExecutionOptions()
    ) -> "RunConfig":
        """Recombine a wire request with host-local execution options."""
        return cls(
            scale=request.scale,
            seed=request.seed,
            flow_cap=request.flow_cap,
            include_passthrough=request.include_passthrough,
            device=request.device,
            limit=request.limit,
            workers=options.workers,
            telemetry=options.telemetry,
            stream=options.stream,
            progress=options.progress,
            heartbeat_interval=options.heartbeat_interval,
            ledger=options.ledger,
            progress_stream=options.progress_stream,
        )


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
    #: Run-health summary (progress + resources); ``None`` unless the
    #: run had progress/heartbeat reporting enabled.  Never part of the
    #: manifest -- health is wall-clock-derived by nature.
    health: dict[str, Any] | None = None


@dataclass(frozen=True)
class AuditResult:
    """The full active-experiment campaign plus provenance."""

    results: Any  # CampaignResults
    manifest: dict[str, Any]
    manifest_digest: str
    artifacts: dict[str, Path] = field(default_factory=dict)
    #: See :attr:`TraceResult.health`.
    health: dict[str, Any] | None = None


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
    capture: Any  # GatewayCapture
    manifest: dict[str, Any]
    manifest_digest: str
    artifacts: dict[str, Path] = field(default_factory=dict)
    #: See :attr:`TraceResult.health`.
    health: dict[str, Any] | None = None


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
    params: Callable[[Any], dict[str, Any]]
    #: Host-local keyword arguments the runner accepts (artifact paths,
    #: notification callbacks) -- never part of the request.
    extras: frozenset[str] = frozenset()
    #: Whether successful runs carry a manifest digest -- the
    #: requirement for content-addressed result caching.
    cacheable: bool = True
    #: Artifact role whose bytes *are* the run's body (``trace`` ->
    #: ``records_jsonl``); None means results are envelope-only.
    stream_role: str | None = None
    summary: str = ""


_COMMANDS: dict[str, CommandSpec] = {}


def _register(
    name: str,
    *,
    params: Callable[[Any], dict[str, Any]],
    extras: tuple[str, ...] = (),
    cacheable: bool = True,
    stream_role: str | None = None,
    summary: str = "",
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a runner under ``name`` (module-import time, fixed order)."""

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        _COMMANDS[name] = CommandSpec(
            name=name,
            runner=fn,
            params=params,
            extras=frozenset(extras),
            cacheable=cacheable,
            stream_role=stream_role,
            summary=summary,
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


def request_digest(command: str, request: RunRequest) -> str:
    """The config digest a run of ``command`` over ``request`` will
    record -- the content address of the computation.  Pure function of
    (command, request, package version), so cache lookups can happen
    before any work is dispatched."""
    from . import __version__

    return _config_digest(command, command_spec(command).params(request), __version__)


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
def _trace_params(request: Any) -> dict[str, Any]:
    params: dict[str, Any] = {"scale": request.scale, "seed": request.seed}
    if request.flow_cap is not None:
        params["flow_cap"] = request.flow_cap
    return params


def _audit_params(request: Any) -> dict[str, Any]:
    return {"include_passthrough": request.include_passthrough}


def _probe_params(request: Any) -> dict[str, Any]:
    return {"device": request.device}


def _report_params(request: Any) -> dict[str, Any]:
    return {"scale": request.scale}


def _pcap_params(request: Any) -> dict[str, Any]:
    return {"scale": request.scale, "limit": request.limit}


def _check_params(request: Any) -> dict[str, Any]:
    # `artifact` mirrors the CLI's check entries: the fresh-run path
    # audits no pre-existing artifact, but the key stays in the digest
    # so CLI and service check runs index identically.
    return {"scale": request.scale, "seed": request.seed, "artifact": None}


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _configure_telemetry(config: RunConfig) -> None:
    # Progress reporting rides on the telemetry runtime (events, spans,
    # resource gauges), so --progress implies telemetry.
    if config.telemetry or config.progress:
        telemetry.configure(enabled=True)


@contextmanager
def _progress_session(
    config: RunConfig,
    heartbeat_path: str | Path | None,
    *,
    label: str,
    total: int | None = None,
) -> Iterator[Any | None]:
    """The run-health envelope around one run body.

    When the run asks for progress (``config.progress``, a
    ``progress_stream`` sink) or a heartbeat stream (``heartbeat_path``),
    this wires up the full chain -- a
    :class:`~repro.telemetry.health.ResourceSampler` (gauges into the
    run registry), an optional
    :class:`~repro.telemetry.progress.HeartbeatWriter`, and a
    :class:`~repro.telemetry.progress.ProgressReporter` attached as
    ``runtime.progress`` for hot paths to feed -- and tears it all down
    on exit, error paths included.  Yields ``None`` (and costs nothing)
    when neither is requested.

    The heartbeat JSONL is deliberately **not** a manifest artifact:
    every line is wall-clock-derived, and digesting it would break the
    on/off manifest parity the telemetry layer guarantees.
    """
    if not (
        config.progress
        or config.progress_stream is not None
        or heartbeat_path is not None
    ):
        yield None
        return
    runtime = telemetry.get()
    sampler = telemetry.ResourceSampler(
        interval=config.heartbeat_interval, registry=runtime.registry
    ).start()
    writer = (
        telemetry.HeartbeatWriter(
            heartbeat_path, metadata={"label": label, "workers": config.workers}
        )
        if heartbeat_path is not None
        else None
    )
    if config.progress_stream is not None:
        stream = config.progress_stream
    elif config.progress:
        stream = lambda line: print(line, file=sys.stderr)  # noqa: E731
    else:
        stream = None
    reporter = telemetry.ProgressReporter(
        label=label,
        total=total,
        interval=config.heartbeat_interval,
        stream=stream,
        heartbeat=writer,
        events=runtime.events,
        sampler=sampler,
    )
    runtime.progress = reporter
    try:
        yield reporter
    finally:
        runtime.progress = None
        # finish() is idempotent and closes the writer + sampler even
        # when the run body raised.
        reporter.finish()


class _LedgerNote:
    """What one run body reports to its ledger entry.

    The run functions fill this in as evidence becomes available --
    manifest + digest once built, artifacts, the health summary, pool
    reuse stats, per-phase wall times -- and :func:`_ledger_session`
    folds it into the final ``iotls-run-ledger/1`` entry on exit.
    """

    def __init__(self) -> None:
        self.manifest: dict[str, Any] | None = None
        self.manifest_digest: str | None = None
        self.artifacts: dict[str, Path] = {}
        self.health: dict[str, Any] | None = None
        self.phases: dict[str, float] = {}
        self.pool: dict[str, Any] | None = None

    def record(
        self,
        *,
        manifest: dict[str, Any] | None = None,
        manifest_digest: str | None = None,
        artifacts: dict[str, Path] | None = None,
        health: dict[str, Any] | None = None,
    ) -> None:
        if manifest is not None:
            self.manifest = manifest
        if manifest_digest is not None:
            self.manifest_digest = manifest_digest
        if artifacts:
            self.artifacts = dict(artifacts)
        if health is not None:
            self.health = health

    def observe_pool(self, pool: Any | None) -> None:
        if pool is not None:
            self.pool = pool.stats()

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
                    workers=config.workers,
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
            workers=config.workers,
            seconds=perf_counter() - started,
            phases=note.phases or None,
            pool=note.pool,
            manifest=note.manifest,
            manifest_digest=note.manifest_digest,
            artifacts=note.artifacts or None,
            health=note.health,
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
@_register(
    "trace",
    params=_trace_params,
    extras=("json_path", "stream_path", "heartbeat_path"),
    stream_role="records_jsonl",
    summary="generate the 27-month passive capture and run every analysis",
)
def _execute_trace(
    config: RunConfig,
    *,
    json_path: str | Path | None = None,
    stream_path: str | Path | None = None,
    heartbeat_path: str | Path | None = None,
) -> TraceResult:
    from .longitudinal import PassiveTraceGenerator
    from .testbed.capture import CaptureTee, ProgressSink

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
        with _progress_session(
            config, heartbeat_path, label="trace"
        ) as reporter, pool_session(config.workers) as pool:
            if streaming:
                pipeline = TraceAnalysisPipeline()
                writer = None
                progress_sink = None
                sinks: list[Any] = [pipeline]
                if stream_path is not None:
                    metadata = {"generator": "iotls trace", **_trace_params(config)}
                    writer = JsonlStreamWriter(stream_path, metadata=metadata)
                    sinks.append(writer)
                if reporter is not None:
                    # Record-level progress comes from the stream itself; the
                    # sink is uncounted and cannot perturb manifests.
                    progress_sink = ProgressSink(reporter)
                    sinks.append(progress_sink)
                # The tee is the single counting stage of the chain: it observes
                # post-flow-cap records exactly like the materialised path's
                # terminal capture, which keeps the manifest metrics identical.
                tee = CaptureTee(*sinks)
                try:
                    generator.stream_into(tee, workers=config.workers)
                finally:
                    if progress_sink is not None:
                        progress_sink.flush()
                    if writer is not None:
                        writer.close()
                analysis = pipeline.finalize()
                capture = None
                if writer is not None:
                    artifacts["records_jsonl"] = writer.path
            else:
                capture = generator.generate(workers=config.workers)
                analysis = analyze_capture(capture)
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
            note.observe_pool(pool)
        manifest, digest = _build_manifest("trace", _trace_params(config), artifacts)
        health = reporter.summary if reporter is not None else None
        note.record(
            manifest=manifest,
            manifest_digest=digest,
            artifacts=artifacts,
            health=health,
        )
        return TraceResult(
            analysis=analysis,
            capture=capture,
            manifest=manifest,
            manifest_digest=digest,
            artifacts=artifacts,
            health=health,
        )


@_register(
    "audit",
    params=_audit_params,
    extras=("json_path", "heartbeat_path"),
    summary="run the full active-experiment campaign (Tables 5/6/7/9)",
)
def _execute_audit(
    config: RunConfig,
    *,
    json_path: str | Path | None = None,
    heartbeat_path: str | Path | None = None,
) -> AuditResult:
    from .core import ActiveExperimentCampaign

    _configure_telemetry(config)
    params = _audit_params(config)
    with _ledger_session(config, "audit", params) as note:
        with _progress_session(
            config, heartbeat_path, label="audit"
        ) as reporter, pool_session(config.workers) as pool:
            results = ActiveExperimentCampaign().run(
                include_passthrough=config.include_passthrough, workers=config.workers
            )
            artifacts: dict[str, Path] = {}
            if json_path is not None:
                artifacts["campaign_json"] = write_json(
                    campaign_to_document(results), json_path
                )
            note.observe_pool(pool)
        manifest, digest = _build_manifest("audit", params, artifacts)
        health = reporter.summary if reporter is not None else None
        note.record(
            manifest=manifest,
            manifest_digest=digest,
            artifacts=artifacts,
            health=health,
        )
        return AuditResult(
            results=results,
            manifest=manifest,
            manifest_digest=digest,
            artifacts=artifacts,
            health=health,
        )


@_register(
    "probe",
    params=_probe_params,
    extras=("json_path",),
    cacheable=False,  # probe runs record no manifest digest
    summary="probe one device's root store (a Table 9 row)",
)
def _execute_probe(
    config: RunConfig, *, json_path: str | Path | None = None
) -> ProbeResult:
    from .core import RootStoreProber
    from .devices import device_by_name
    from .testbed import Testbed

    if config.device is None:
        raise ValueError("probe runs need RunConfig.device (or RunRequest.device)")
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


@_register(
    "report",
    params=_report_params,
    extras=("out", "progress", "heartbeat_path"),
    summary="run everything and write the full markdown report",
)
def _execute_report(
    config: RunConfig,
    *,
    out: str | Path = "REPORT.md",
    progress: Callable[[str], None] | None = None,
    heartbeat_path: str | Path | None = None,
) -> ReportResult:
    from .analysis.report import write_report
    from .core import ActiveExperimentCampaign
    from .longitudinal import PassiveTraceGenerator
    from .testbed import Testbed

    _configure_telemetry(config)
    notify = progress or (lambda message: None)
    testbed = Testbed()
    with _ledger_session(config, "report", _report_params(config)) as note:
        with _progress_session(
            config, heartbeat_path, label="report"
        ) as reporter, pool_session(config.workers) as pool:
            # One pool session spans both phases: the campaign's shards and
            # the trace's chunks land on the same warm processes, so the
            # spawn + import + testbed cost is paid once per run, not once
            # per phase.
            notify("running active campaign...")
            with note.phase("campaign"):
                results = ActiveExperimentCampaign(testbed).run(workers=config.workers)
            notify("generating passive trace...")
            with note.phase("trace"):
                capture = PassiveTraceGenerator(
                    testbed, scale=config.scale, seed=config.seed
                ).generate(workers=config.workers)
            with note.phase("render"):
                path = write_report(testbed, results, capture, out)
            note.observe_pool(pool)
        artifacts = {"report_md": path}
        manifest, digest = _build_manifest("report", _report_params(config), artifacts)
        health = reporter.summary if reporter is not None else None
        note.record(
            manifest=manifest,
            manifest_digest=digest,
            artifacts=artifacts,
            health=health,
        )
        return ReportResult(
            path=path,
            results=results,
            capture=capture,
            manifest=manifest,
            manifest_digest=digest,
            artifacts=artifacts,
            health=health,
        )


@_register(
    "pcap",
    params=_pcap_params,
    extras=("out",),
    summary="export the passive capture's ClientHellos as a pcap file",
)
def _execute_pcap(config: RunConfig, *, out: str | Path = "iotls.pcap") -> PcapResult:
    from .longitudinal import PassiveTraceGenerator
    from .testbed.pcap import write_pcap

    _configure_telemetry(config)
    params = _pcap_params(config)
    limit = config.limit
    with _ledger_session(config, "pcap", params) as note:
        with pool_session(config.workers) as pool:
            capture = PassiveTraceGenerator(
                scale=config.scale, seed=config.seed
            ).generate(workers=config.workers)
            note.observe_pool(pool)
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
    extras=("expected_path",),
    cacheable=False,  # the drift verdict carries no manifest
    summary="audit a fresh run against the paper's published values",
)
def _execute_check(
    config: RunConfig, *, expected_path: str | Path | None = None
) -> CheckResult:
    from .analysis.drift import audit_fresh_run

    _configure_telemetry(config)
    with pool_session(config.workers):
        report = audit_fresh_run(
            scale=config.scale,
            seed=config.seed,
            workers=config.workers,
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
                params=_check_params(config),
                workers=config.workers,
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


# ----------------------------------------------------------------------
# The classic run functions: thin wrappers over the registry
# ----------------------------------------------------------------------
def run_trace(
    config: RunConfig = RunConfig(),
    *,
    json_path: str | Path | None = None,
    stream_path: str | Path | None = None,
    heartbeat_path: str | Path | None = None,
) -> TraceResult:
    """Generate the 27-month passive capture and run every analysis.

    ``json_path`` exports the materialised document artifact;
    ``stream_path`` exports the JSONL stream artifact (and implies
    streaming mode, as does ``config.stream``).  The two exports are
    mutually exclusive: a streaming run never materialises the capture
    the document shape requires.  ``heartbeat_path`` writes the
    machine-readable run-health stream (``iotls-health-stream/1``); it
    is telemetry about the run, not an artifact of it, so it never
    enters the manifest.
    """
    return execute(
        "trace",
        config,
        json_path=json_path,
        stream_path=stream_path,
        heartbeat_path=heartbeat_path,
    )


def run_audit(
    config: RunConfig = RunConfig(),
    *,
    json_path: str | Path | None = None,
    heartbeat_path: str | Path | None = None,
) -> AuditResult:
    """Run the full active-experiment campaign (Tables 5/6/7/9)."""
    return execute("audit", config, json_path=json_path, heartbeat_path=heartbeat_path)


def run_probe(
    device: str,
    config: RunConfig = RunConfig(),
    *,
    json_path: str | Path | None = None,
) -> ProbeResult:
    """Probe one device's root store (a Table 9 row).

    Raises :class:`UnknownDeviceError` for names outside the catalog and
    :class:`DeviceNotProbeableError` for devices the methodology cannot
    probe (non-rebootable or passive-only).  A device that *can* be
    probed but turns out non-amenable is a normal result
    (``ProbeResult.amenable`` is False).
    """
    return execute("probe", replace(config, device=device), json_path=json_path)


def run_report(
    config: RunConfig = RunConfig(),
    *,
    out: str | Path = "REPORT.md",
    progress: Callable[[str], None] | None = None,
    heartbeat_path: str | Path | None = None,
) -> ReportResult:
    """Run everything and write the full markdown report.

    ``progress`` receives coarse phase announcements (the CLI prints
    them); pass ``None`` for a silent run.  Live heartbeats are separate:
    ``config.progress`` / ``heartbeat_path`` wire the same run-health
    envelope the other run functions use.
    """
    return execute(
        "report", config, out=out, progress=progress, heartbeat_path=heartbeat_path
    )


def run_pcap(
    config: RunConfig = RunConfig(),
    *,
    out: str | Path = "iotls.pcap",
    limit: int | None = None,
) -> PcapResult:
    """Export the passive capture's ClientHellos as a pcap file.

    ``limit`` overrides ``config.limit`` when given; the config field is
    the canonical (digest-entering) location.
    """
    if limit is not None:
        config = replace(config, limit=limit)
    return execute("pcap", config, out=out)


def run_check(
    config: RunConfig = RunConfig(), *, expected_path: str | Path | None = None
) -> CheckResult:
    """Audit a fresh run against the paper's published values
    (the programmatic ``iotls check`` fresh-run path)."""
    return execute("check", config, expected_path=expected_path)
