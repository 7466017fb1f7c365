"""Host the fleet service for the ``serve`` workload, optionally traced.

``bench/serve_load.py`` starts this script, reads ``PORT <n>`` from its
stdout and drives the service over HTTP.  The service runs with two
executors and a resident warm pool of two workers, so cache misses take
the parallel stream path.  Its ledger and artifacts live in ``--workdir``.

Commands arrive on stdin, one per line:

* ``stats`` -- print one JSON line: the layer totals so far (when
  ``--traced 1``) and this process's peak RSS;
* ``reference`` -- time ``bench/reference.py`` here and print the
  seconds, one JSON line;
* end of input -- stop the service and exit.

Usage (normally only ``serve_load.py`` calls it)::

    python bench/serve_host.py --workdir DIR --traced 0
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import threading
from pathlib import Path

import layers
import reference

WORKERS = 2
EXECUTORS = 2


def _commands(loop: asyncio.AbstractEventLoop, done: asyncio.Event, tracer) -> None:
    for line in sys.stdin:
        if line.strip() == "stats":
            stats = {
                "layers": tracer.snapshot() if tracer is not None else None,
                "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
            print(json.dumps(stats), flush=True)
        elif line.strip() == "reference":
            print(json.dumps({"reference_seconds": reference.time_reference()}), flush=True)
    loop.call_soon_threadsafe(done.set)


async def _serve(workdir: Path, tracer) -> None:
    from repro.serve import FleetService, ServeConfig

    config = ServeConfig(
        host="127.0.0.1",
        port=0,
        executors=EXECUTORS,
        workers=WORKERS,
        ledger=workdir / "ledger.jsonl",
        artifact_dir=workdir / "artifacts",
    )
    service = await asyncio.to_thread(FleetService, config)
    await service.start()
    done = asyncio.Event()
    reader = threading.Thread(
        target=_commands, args=(asyncio.get_running_loop(), done, tracer), daemon=True
    )
    reader.start()
    print(f"PORT {service.port}", flush=True)
    try:
        await done.wait()
    finally:
        await service.stop()
    await asyncio.to_thread(reader.join)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    tracer = None
    if args.traced:
        tracer = layers.LayerTracer()
        tracer.install()
    asyncio.run(_serve(args.workdir, tracer))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
