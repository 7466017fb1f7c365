"""The process-wide telemetry runtime: one registry and one tracer.

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
something (the CLI's ``--telemetry`` flag, a bench tool, a test)
enables it.
"""

from __future__ import annotations

from .metrics import MetricsRegistry
from .tracing import Tracer

__all__ = [
    "TelemetryRuntime",
    "configure",
    "disable",
    "enable",
    "enabled",
    "get",
    "get_registry",
    "get_tracer",
    "reset",
]


class TelemetryRuntime:
    """A registry + tracer behind one enable switch."""

    __slots__ = (
        "enabled",
        "registry",
        "tracer",
    )

    def __init__(self, *, enabled: bool = False) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(registry=self.registry, enabled=enabled)

    def configure(
        self,
        *,
        enabled: bool = True,
        reset: bool = True,
    ) -> "TelemetryRuntime":
        """Switch telemetry on or off, optionally resetting state.

        ``reset=True`` (the default) zeroes metrics and finished spans so
        a run's snapshot covers exactly that run.
        """
        if reset:
            self.reset()
        self.enabled = enabled
        self.registry.enabled = enabled
        self.tracer.enabled = enabled
        return self

    def reset(self) -> None:
        self.registry.reset()
        self.tracer.reset()


#: The singleton every instrumented module shares.  Mutated in place,
#: never rebound -- caching ``telemetry.get()`` at import time is safe.
_RUNTIME = TelemetryRuntime()


def get() -> TelemetryRuntime:
    return _RUNTIME


def get_registry() -> MetricsRegistry:
    return _RUNTIME.registry


def get_tracer() -> Tracer:
    return _RUNTIME.tracer


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
