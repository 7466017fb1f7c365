"""Where a run's time went, per ``repro`` module: a stdlib profile.

``--profile`` and ``--profile-out`` run the command under
:class:`cProfile.Profile`, which times every function, so no list of
instrumented functions has to keep in step with the code.
:func:`profile_document` folds the profile into one row per ``repro``
module (``tls.engine``, ``analysis.streaming``, ``core.prober``, ...):
the calls whose self time the row holds, those seconds, and their share
of the profiled time.

A function outside the package (a builtin, ``json``, ``hashlib``) is
charged to its *direct* ``repro`` caller: ``pstats`` records its self
time per caller.  What is left (the standard library calling itself,
the profiler's own exit) is one ``(other)`` row, and ``coverage`` is one
minus that row's share.

Nothing here runs without the flags: no profiler hook is installed, and
:mod:`cProfile` and :mod:`pstats` are imported only inside
:func:`profile_call` and :func:`profile_document`.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Any, Callable

__all__ = ["PROFILE_SCHEMA", "profile_call", "profile_document"]

from .schemas import PROFILE_SCHEMA  # registered in repro.telemetry.schemas

#: The directory whose ``.py`` files are the ``repro`` modules.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]

#: The row for time no ``repro`` function spent or directly called.
OTHER = "(other)"

_TOP_FUNCTIONS = 20


def profile_call(
    command: str, fn: Callable[..., Any], *args: Any
) -> tuple[Any, dict[str, Any]]:
    """``fn(*args)`` run under :class:`cProfile.Profile`: its result and
    the ``command``'s profile document."""
    import cProfile

    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args)
    return result, profile_document(profiler, command)


def profile_document(profiler: Any, command: str) -> dict[str, Any]:
    """The ``iotls-profile/2`` document of a finished ``cProfile`` run.

    Modules are the ``.py`` files under :data:`PACKAGE_ROOT`, named by
    their dotted path relative to it.
    """
    import pstats

    stats = pstats.Stats(profiler).stats
    prefix = str(PACKAGE_ROOT) + os.sep
    names: dict[str, str | None] = {}

    def module_of(filename: str) -> str | None:
        if filename not in names:
            path = os.path.abspath(filename)
            names[filename] = (
                ".".join(Path(path[len(prefix):]).with_suffix("").parts)
                if path.startswith(prefix) and path.endswith(".py")
                else None
            )
        return names[filename]

    rows: dict[str, list] = {}  # module -> [calls, self seconds]

    def charge(module: str, calls: int, seconds: float) -> None:
        row = rows.setdefault(module, [0, 0.0])
        row[0] += calls
        row[1] += seconds

    for (filename, _, _), (_, calls, self_time, _, callers) in stats.items():
        module = module_of(filename)
        if module is not None:
            charge(module, calls, self_time)
        elif callers:
            for (caller_file, _, _), (caller_calls, _, caller_self, _) in callers.items():
                charge(module_of(caller_file) or OTHER, caller_calls, caller_self)
        else:
            charge(OTHER, calls, self_time)

    total = sum(seconds for _, seconds in rows.values())

    def row(key: str, name: str, calls: int, seconds: float) -> dict[str, Any]:
        share = round(seconds / total, 4) if total else 0.0
        return {key: name, "calls": calls, "self_seconds": round(seconds, 6), "share": share}

    def function_name(key: tuple[str, int, str]) -> str:
        module = module_of(key[0])
        if module:
            return f"{module}:{key[2]}"
        # A C-level function's name carries its address; drop it so two
        # profiles of one command name the same functions.
        return re.sub(r" at 0x[0-9a-f]+", "", pstats.func_std_string(key))

    hottest = sorted(stats.items(), key=lambda item: (-item[1][2], item[0]))
    by_seconds = sorted(rows.items(), key=lambda item: (-item[1][1], item[0]))
    other = rows.get(OTHER, [0, 0.0])[1]
    return {
        "schema": PROFILE_SCHEMA,
        "command": command,
        "total_seconds": round(total, 6),
        "coverage": round(1 - other / total, 4) if total else 0.0,
        "modules": [
            row("module", module, calls, seconds) for module, (calls, seconds) in by_seconds
        ],
        "functions": [
            row("function", function_name(key), value[1], value[2])
            for key, value in hottest[:_TOP_FUNCTIONS]
        ],
    }
