"""The process-wide telemetry runtime: one registry, tracer, and event log.

Instrumented hot paths share a single :class:`TelemetryRuntime`
singleton, obtained once at import time via :func:`get` -- the object's
identity never changes; :func:`configure` mutates it in place.  The
fast-path contract is::

    _TELEMETRY = telemetry.get()          # module scope, once
    ...
    if _TELEMETRY.enabled:                # one attribute read when off
        _TELEMETRY.registry.counter(...).inc(...)

Telemetry is **opt-in**: the default runtime starts disabled, so the
library adds one boolean check per instrumented operation until
something (the CLI's ``--telemetry`` flag, the benchmark harness, a
test) enables it.
"""

from __future__ import annotations

from pathlib import Path

from .events import EventLog
from .metrics import MetricsRegistry
from .tracing import Tracer

__all__ = [
    "TelemetryRuntime",
    "configure",
    "disable",
    "enable",
    "enabled",
    "get",
    "get_events",
    "get_registry",
    "get_tracer",
    "reset",
]


class TelemetryRuntime:
    """A registry + tracer + event log behind one enable switch."""

    __slots__ = (
        "enabled",
        "registry",
        "tracer",
        "events",
        "worker_profiles",
        "progress",
    )

    def __init__(self, *, enabled: bool = False) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(registry=self.registry, enabled=enabled)
        self.events = EventLog(enabled=enabled)
        #: Profile payloads merged in from worker processes
        #: (:meth:`merge_worker_states`), consumed by
        #: :meth:`repro.telemetry.profiling.Profiler.from_runtime`.
        self.worker_profiles: list[dict] = []
        #: The active :class:`~repro.telemetry.progress.ProgressReporter`
        #: for the current run, or ``None``.  Hot paths guard with
        #: ``if runtime.progress is not None`` -- the same one-read
        #: contract as ``enabled``.
        self.progress = None

    def configure(
        self,
        *,
        enabled: bool = True,
        level: str | None = None,
        events_path: str | Path | None = None,
        reset: bool = True,
    ) -> "TelemetryRuntime":
        """Switch telemetry on or off, optionally resetting state.

        ``reset=True`` (the default) zeroes metrics, finished spans, and
        the event tail so a run's snapshot covers exactly that run.
        """
        if reset:
            self.reset()
        self.enabled = enabled
        self.registry.enabled = enabled
        self.tracer.enabled = enabled
        self.events.enabled = enabled
        if level is not None:
            self.events.set_level(level)
        if events_path is not None:
            self.events.attach(events_path)
        return self

    def reset(self) -> None:
        self.registry.reset()
        self.tracer.reset()
        self.events.reset()
        self.worker_profiles.clear()
        self.progress = None

    # ------------------------------------------------------------------
    # Parallel-worker state transfer
    # ------------------------------------------------------------------
    def export_worker_state(
        self, worker: int, *, context: object | None = None, process: str | None = None
    ) -> dict:
        """Everything a worker process ships back to its parent.

        Metrics travel as a :func:`~repro.telemetry.export.metrics_snapshot`
        document, events as the plain tail list, and the worker's span
        profile as a :meth:`~repro.telemetry.profiling.Profiler.to_payload`
        document -- all pure data, so the payload pickles across the
        ``spawn`` process boundary.  ``context`` is the coordinator's
        propagated :class:`~repro.telemetry.tracing.TraceContext` (or its
        dict form); it rides in the profile payload so merge re-parents
        this worker's spans under the dispatch span.  ``process`` names
        the pool process that ran the task (see
        :meth:`~repro.telemetry.profiling.Profiler.merge_payload`).
        """
        from .export import metrics_snapshot
        from .profiling import Profiler

        return {
            "worker": worker,
            "metrics": metrics_snapshot(self.registry),
            "events": self.events.tail(),
            "profile": Profiler.from_tracer(self.tracer).to_payload(
                worker=worker, context=context, process=process
            ),
        }

    def merge_worker_states(self, states: list[dict]) -> None:
        """Fold worker telemetry into this runtime, keyed by worker id.

        States are merged in ascending worker-id order -- never arrival
        order -- so counter totals, event interleaving, and therefore
        exported snapshots are identical run-to-run.  ``None`` entries
        (workers that ran without telemetry) are skipped.
        """
        for state in sorted(
            (state for state in states if state is not None),
            key=lambda state: state["worker"],
        ):
            self.registry.merge_snapshot(state["metrics"])
            self.events.merge(state["events"], worker=state["worker"])
            if state.get("profile") is not None:
                self.worker_profiles.append(state["profile"])


#: The singleton every instrumented module shares.  Mutated in place,
#: never rebound -- caching ``telemetry.get()`` at import time is safe.
_RUNTIME = TelemetryRuntime()


def get() -> TelemetryRuntime:
    return _RUNTIME


def get_registry() -> MetricsRegistry:
    return _RUNTIME.registry


def get_tracer() -> Tracer:
    return _RUNTIME.tracer


def get_events() -> EventLog:
    return _RUNTIME.events


def enabled() -> bool:
    return _RUNTIME.enabled


def configure(**kwargs) -> TelemetryRuntime:
    return _RUNTIME.configure(**kwargs)


def enable(**kwargs) -> TelemetryRuntime:
    return _RUNTIME.configure(enabled=True, **kwargs)


def disable() -> TelemetryRuntime:
    return _RUNTIME.configure(enabled=False)


def reset() -> None:
    _RUNTIME.reset()
