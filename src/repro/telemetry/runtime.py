"""The process-wide telemetry runtime: one registry behind one switch.

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

__all__ = [
    "TelemetryRuntime",
    "configure",
    "enabled",
    "get",
    "get_registry",
]


class TelemetryRuntime:
    """A metrics registry behind one enable switch."""

    __slots__ = ("enabled", "registry")

    def __init__(self, *, enabled: bool = False) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)

    def configure(self, *, enabled: bool = True) -> "TelemetryRuntime":
        """Switch telemetry on or off, dropping every metric, so a run's
        manifest counts exactly that run, zero-valued declarations
        included."""
        self.registry.reset()
        self.enabled = enabled
        self.registry.enabled = enabled
        return self


#: The singleton every instrumented module shares.  Mutated in place,
#: never rebound -- caching ``telemetry.get()`` at import time is safe.
_RUNTIME = TelemetryRuntime()


def get() -> TelemetryRuntime:
    return _RUNTIME


def get_registry() -> MetricsRegistry:
    return _RUNTIME.registry


def enabled() -> bool:
    return _RUNTIME.enabled


def configure(*, enabled: bool = True) -> TelemetryRuntime:
    return _RUNTIME.configure(enabled=enabled)
