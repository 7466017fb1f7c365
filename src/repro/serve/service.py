"""The resident fleet service: ``iotls serve``.

One process holds the expensive read-only state -- the Testbed's
root-store universe, the device catalog, the JA3 reference fingerprint
database -- and serves run requests over HTTP against it, concurrently.
This is the "many tenants, few computations" architecture the roadmap
names: each request is canonicalised to its config digest *before* any
work happens, and the run ledger's content-addressed index decides
whether the computation exists at all.

Request lifecycle (``POST /runs``):

1. **Parse** the JSON body into a command name plus a
   :class:`repro.api.RunConfig` via :meth:`~repro.api.RunConfig.from_document`
   (the six wire fields; the service pins the pool and ledger itself);
   unknown commands, malformed fields and host-local fields answer 400
   without touching the queue.
2. **Canonicalise** to ``config_digest`` via
   :func:`repro.api.request_digest` -- a pure function, so this costs
   nothing.
3. **Consult the cache**: :func:`repro.telemetry.ledger.lookup_config`
   over the service's ledger.  A hit (newest successful entry with
   *live* artifacts) is served straight from disk -- trace bodies as
   ``iotls-trace-stream/1`` JSONL with ``Content-Length`` + one sendfile,
   the ledger entry's envelope for the rest -- with
   ``X-IoTLS-Cache: hit`` and **zero** pool dispatches.
4. **Coalesce**: an identical request already computing shares its
   in-flight future (``X-IoTLS-Cache: coalesced``) instead of
   recomputing or double-writing artifacts.
5. **Queue** a miss into the bounded run queue; a full queue answers
   ``429`` with ``Retry-After`` instead of accepting unbounded work.
6. **Execute** on an executor slot: the blocking run goes through
   :func:`repro.api.execute` on one of the service's own run threads
   (``executors`` of them, reused for its lifetime), sharding onto the
   service's *resident* :class:`~repro.parallel.pool.WarmWorkerPool`
   (one pool spans the server's lifetime, so every request reuses the
   same warm processes).  The run's own ``_ledger_session``
   appends exactly one ledger entry, which *is* the cache population --
   the next identical tenant hits in step 3.  A pool worker dying
   mid-run answers ``503`` (:class:`repro.api.WorkerCrashed`).

While a run executes, the executor emits ``request.heartbeat`` events
every ``heartbeat_interval`` seconds into the server-wide
:class:`~repro.telemetry.access.AccessLog` (schema
``iotls-serve-access/1``) -- per-request liveness in one tail-able
stream, emitted by the event loop whether or not the run makes progress.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .. import api, telemetry
from ..parallel import WarmWorkerPool
from ..telemetry import DEFAULT_LEDGER_PATH, AccessLog
from .http import HttpError, HttpRequest, read_request, send_file, send_json

__all__ = ["ServeConfig", "FleetService", "serve"]

#: Schema tag of the ``GET /status`` document (central registry).
from ..telemetry.schemas import STATUS_SCHEMA  # noqa: E402

#: Seconds :meth:`FleetService.stop` lets open connections finish their
#: response and its access-log record before it cancels them.
_DRAIN_SECONDS = 10.0


@dataclass(frozen=True)
class ServeConfig:
    """Host-local configuration of one fleet-service process."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (tests read ``service.port``).
    port: int = 8738
    #: Bounded run-queue capacity; beyond it requests get 429.
    queue_size: int = 8
    #: Concurrent run executors (each drives one blocking run at a time).
    executors: int = 2
    #: The resident warm pool's size; 1 runs every request in-process.
    workers: int = 1
    #: The ledger that is both run history and the result cache's index.
    ledger: str | Path = DEFAULT_LEDGER_PATH
    #: Where computed run artifacts (stream bodies, reports, pcaps) land.
    artifact_dir: str | Path = ".iotls/serve"
    #: Access-log JSONL path (``None`` keeps counters only).
    access_log: str | Path | None = None
    #: Seconds between ``request.heartbeat`` access-log events per run.
    heartbeat_interval: float = 1.0
    #: ``Retry-After`` seconds advertised on 429 and 503 responses.
    retry_after: int = 1

    def __post_init__(self) -> None:
        # Each of these would hang or silently disable the service: with
        # no executor a queued request never answers, with no worker no
        # run has a process to execute on, ``asyncio.Queue(0)`` is
        # unbounded (no 429 ever), and a zero interval floods the access
        # log.  Refusing here comes before the access log opens.
        if self.executors < 1:
            raise ValueError(f"executors must be >= 1, got {self.executors}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {self.queue_size}")
        if self.retry_after < 0:
            raise ValueError(f"retry_after must be >= 0, got {self.retry_after}")
        interval = self.heartbeat_interval
        if not (math.isfinite(interval) and interval > 0):
            raise ValueError(f"heartbeat_interval must be finite and > 0, got {interval}")


@dataclass
class _Job:
    """One queued computation and the future its waiters share."""

    id: int
    command: str
    config: api.RunConfig
    digest: str
    future: asyncio.Future
    #: In-flight coalescing key; ``None`` for uncacheable commands.
    key: tuple[str, str] | None = None


@dataclass
class _CacheStats:
    hits: int = 0
    misses: int = 0
    coalesced: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
        }


class FleetService:
    """The resident service: call :meth:`start` inside a running loop,
    then :meth:`serve_forever` (or issue requests against
    ``http://host:port`` from tests) and :meth:`stop`."""

    def __init__(self, config: ServeConfig = ServeConfig()) -> None:
        self.config = config
        self.access = AccessLog(
            config.access_log,
            metadata={
                "service": "iotls serve",
                "workers": config.workers,
                "executors": config.executors,
                "queue_size": config.queue_size,
            },
        )
        self.cache = _CacheStats()
        #: Bound port once started (differs from config.port when 0).
        self.port: int | None = None
        self._resident: dict[str, Any] = {}
        self._pool: WarmWorkerPool | None = None
        self._run_threads: ThreadPoolExecutor | None = None
        self._queue: asyncio.Queue[_Job] | None = None
        self._inflight: dict[tuple[str, str], asyncio.Future] = {}
        self._executors: list[asyncio.Task] = []
        self._clients: set[asyncio.Task] = set()
        self._server: asyncio.AbstractServer | None = None
        self._job_ids = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _load_resident(self) -> None:
        """Build the read-only state every request shares, once.

        The objects stay referenced for the process lifetime, and the
        module-level caches they populate (the catalog's ``lru_cache``,
        the warm workers' preloads) mean no request pays the load again.
        """
        from ..devices.catalog import build_catalog
        from ..fingerprint.database import build_reference_database
        from ..testbed import Testbed

        testbed = Testbed()
        catalog = build_catalog()
        fingerprints = build_reference_database()
        self._testbed = testbed
        self._fingerprints = fingerprints
        self._resident = {
            "devices": len(catalog),
            "root_records": len(testbed.universe.records),
            "fingerprints": len(fingerprints),
        }

    async def start(self) -> None:
        config = self.config
        await asyncio.to_thread(self._load_resident)
        # One pool spans the server's lifetime: every request's shards
        # land on the same warm processes, so spawn + import + preload
        # cost is paid once per *server*, not once per request.
        if config.workers != 1:
            self._pool = WarmWorkerPool(config.workers)
        # Runs get threads of their own rather than the loop's default
        # executor, whose file-I/O threads would take them in no fixed
        # order.  glibc gives each thread its own malloc arena, so a run
        # on a thread that has not run one before grows the heap by a
        # run's working set again.  Under a serial load every run now
        # reuses the first run thread.
        self._run_threads = ThreadPoolExecutor(
            max_workers=config.executors, thread_name_prefix="iotls-serve-run"
        )
        self._queue = asyncio.Queue(maxsize=config.queue_size)
        self._executors = [
            asyncio.create_task(self._executor_loop(), name=f"iotls-serve-exec-{i}")
            for i in range(config.executors)
        ]
        self._server = await asyncio.start_server(
            self._handle_client, config.host, config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.access.record(
            "server.start",
            host=config.host,
            port=self.port,
            resident=self._resident,
            pool=self._pool.stats() if self._pool is not None else None,
        )

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            # A client can finish reading a Content-Length body before its
            # handler resumes to log it, so drain handlers before the log
            # closes (and before wait_closed, which may wait on them).
            if self._clients:
                _, late = await asyncio.wait(self._clients, timeout=_DRAIN_SECONDS)
                for task in late:
                    task.cancel()
                await asyncio.gather(*late, return_exceptions=True)
            await self._server.wait_closed()
        for task in self._executors:
            task.cancel()
        await asyncio.gather(*self._executors, return_exceptions=True)
        # A run whose executor was cancelled still finishes on its thread.
        if self._run_threads is not None:
            await asyncio.to_thread(self._run_threads.shutdown)
        # Closing the pool joins worker processes; keep the loop free.
        if self._pool is not None:
            await asyncio.to_thread(self._pool.close)
        self.access.close(cache=self.cache.to_dict())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _executor_loop(self) -> None:
        assert self._queue is not None
        while True:
            job = await self._queue.get()
            try:
                await self._run_job(job)
            finally:
                self._queue.task_done()

    async def _run_job(self, job: _Job) -> None:
        """Drive one blocking run on a thread, heartbeating while it lasts."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        self.access.record("run.start", id=job.id, command=job.command, digest=job.digest)
        task = loop.run_in_executor(self._run_threads, self._execute_job, job)
        while True:
            done, _ = await asyncio.wait({task}, timeout=self.config.heartbeat_interval)
            if done:
                break
            self.access.record(
                "request.heartbeat",
                id=job.id,
                command=job.command,
                elapsed=round(loop.time() - started, 3),
                queue_depth=self._queue.qsize() if self._queue else 0,
            )
        if job.key is not None:
            self._inflight.pop(job.key, None)
        try:
            result = task.result()
        except Exception as exc:
            self.access.record(
                "run.error",
                id=job.id,
                command=job.command,
                error=type(exc).__name__,
                seconds=round(loop.time() - started, 3),
            )
            if not job.future.done():
                job.future.set_exception(exc)
        else:
            self.access.record(
                "run.ok",
                id=job.id,
                command=job.command,
                digest=job.digest,
                manifest=getattr(result, "manifest_digest", None),
                seconds=round(loop.time() - started, 3),
            )
            if not job.future.done():
                job.future.set_result(result)

    def _execute_job(self, job: _Job) -> api.RunResult:
        """The blocking half: runs on a run thread, shards onto the
        resident warm pool, and appends the run's one ledger entry."""
        extras: dict[str, Any] = {}
        if job.command == "trace":
            extras["stream_path"] = self._artifact_path(job.digest, "records.jsonl")
        elif job.command == "report":
            extras["out"] = self._artifact_path(job.digest, "report.md")
        elif job.command == "pcap":
            extras["out"] = self._artifact_path(job.digest, "pcap")
        return api.execute(job.command, job.config, **extras)

    def _artifact_path(self, digest: str, suffix: str) -> Path:
        root = Path(self.config.artifact_dir)
        root.mkdir(parents=True, exist_ok=True)
        return root / f"{digest}.{suffix}"

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        request: HttpRequest | None = None
        task = asyncio.current_task()
        self._clients.add(task)
        task.add_done_callback(self._clients.discard)
        try:
            request = await read_request(reader)
            if request is None:
                return
            try:
                await self._route(request, writer)
                return
            except ConnectionError as exc:  # the client left: nothing to answer
                event, status, error = "request.disconnect", None, type(exc).__name__
            except HttpError as exc:
                event, status, error = "request.error", exc.status, exc.message
                await send_json(writer, status, {"error": error}, headers=exc.headers)
            except Exception as exc:  # a server bug, not a request outcome
                event, status, error = "request.error", 500, type(exc).__name__
                await send_json(writer, status, {"error": f"{error}: {exc}"})
            self.access.record(
                event,
                method=request.method,
                path=request.path,
                status=status,
                error=error,
            )
        except HttpError as exc:  # framing failed before a request existed
            with contextlib.suppress(ConnectionError, OSError):
                await send_json(writer, exc.status, {"error": exc.message})
        except (ConnectionError, OSError):
            pass
        finally:
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()

    async def _route(self, request: HttpRequest, writer: asyncio.StreamWriter) -> None:
        if request.path == "/healthz":
            if request.method != "GET":
                raise HttpError(405, "healthz is GET-only")
            await send_json(writer, 200, {"status": "ok"})
            return
        if request.path == "/status":
            if request.method != "GET":
                raise HttpError(405, "status is GET-only")
            await send_json(writer, 200, self.status_document())
            return
        if request.path == "/runs":
            if request.method != "POST":
                raise HttpError(405, "runs is POST-only")
            await self._handle_runs(request, writer)
            return
        raise HttpError(404, f"no such endpoint: {request.path}")

    def status_document(self) -> dict[str, Any]:
        return {
            "schema": STATUS_SCHEMA,
            "queue": {
                "depth": self._queue.qsize() if self._queue is not None else 0,
                "capacity": self.config.queue_size,
                "executors": self.config.executors,
                "inflight": len(self._inflight),
            },
            "pool": self._pool.stats() if self._pool is not None else None,
            "cache": self.cache.to_dict(),
            "resident": self._resident,
            "access": dict(sorted(self.access.counts.items())),
        }

    async def _handle_runs(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        document = request.json()
        if not isinstance(document, dict):
            raise HttpError(400, "run request must be a JSON object")
        payload = dict(document)
        command = payload.pop("command", None)
        if not isinstance(command, str):
            raise HttpError(400, 'run request needs a "command" string')
        try:
            spec = api.command_spec(command)
        except api.UnknownCommandError as exc:
            raise HttpError(400, str(exc)) from None
        try:
            config = replace(
                api.RunConfig.from_document(payload),
                pool=self._pool,
                ledger=self.config.ledger,
            )
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        if command == "probe" and config.device is None:
            raise HttpError(400, "probe requests need a device")
        digest = api.request_digest(command, config)
        loop = asyncio.get_running_loop()
        started = loop.time()

        if spec.cacheable:
            entries = await asyncio.to_thread(telemetry.load_ledger, self.config.ledger)
            hit = telemetry.lookup_config(entries, digest)
            if hit is not None and (
                spec.stream_role is None
                or spec.stream_role in (hit.get("artifacts") or {})
            ):
                self.cache.hits += 1
                await self._respond_cached(writer, spec, hit, digest)
                self._log_request(request, command, digest, "hit", started)
                return

        cache_state = "miss"
        future = self._inflight.get((command, digest)) if spec.cacheable else None
        if future is not None:
            cache_state = "coalesced"
            self.cache.coalesced += 1
        else:
            self.cache.misses += 1
            future = loop.create_future()
            self._job_ids += 1
            key = (command, digest) if spec.cacheable else None
            job = _Job(
                id=self._job_ids,
                command=command,
                config=config,
                digest=digest,
                future=future,
                key=key,
            )
            assert self._queue is not None, "start() first"
            try:
                self._queue.put_nowait(job)
            except asyncio.QueueFull:
                self.cache.misses -= 1
                raise self._retry_later(429, "run queue is full") from None
            if key is not None:
                self._inflight[key] = future

        try:
            result = await asyncio.shield(future)
        except api.WorkerCrashed as exc:
            # The pool has replaced the dead worker: a retry recomputes.
            raise self._retry_later(503, str(exc)) from None
        except api.UnknownDeviceError as exc:
            raise HttpError(404, str(exc)) from None
        except api.RunError as exc:
            raise HttpError(400, str(exc)) from None
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        await self._respond_result(writer, spec, result, digest, cache_state)
        self._log_request(request, command, digest, cache_state, started)

    def _retry_later(self, status: int, message: str) -> HttpError:
        """An error answer that tells the client when to try again."""
        return HttpError(
            status, message, headers={"Retry-After": str(self.config.retry_after)}
        )

    def _log_request(
        self,
        request: HttpRequest,
        command: str,
        digest: str,
        cache_state: str,
        started: float,
    ) -> None:
        loop = asyncio.get_running_loop()
        self.access.record(
            "request",
            method=request.method,
            path=request.path,
            command=command,
            digest=digest,
            cache=cache_state,
            status=200,
            seconds=round(loop.time() - started, 3),
        )

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def _headers(
        self, digest: str, cache_state: str, manifest_digest: str | None
    ) -> dict[str, str]:
        headers = {
            "X-IoTLS-Cache": cache_state,
            "X-IoTLS-Config-Digest": digest,
        }
        if manifest_digest:
            headers["X-IoTLS-Manifest-Digest"] = manifest_digest
        return headers

    async def _respond_cached(
        self,
        writer: asyncio.StreamWriter,
        spec: api.CommandSpec,
        entry: dict[str, Any],
        digest: str,
    ) -> None:
        """Serve a run whose bytes already exist: no queue, no pool."""
        manifest_digest = entry.get("manifest_digest")
        headers = self._headers(digest, "hit", manifest_digest)
        if spec.stream_role is not None:
            path = Path(entry["artifacts"][spec.stream_role]["path"])
            await self._send_artifact(writer, path, headers)
            return
        artifacts = entry.get("artifacts") or {}
        envelope = {
            "command": entry.get("command"),
            "status": "ok",
            "cached": True,
            "config_digest": entry.get("config_digest"),
            "manifest_digest": manifest_digest,
            "seconds": entry.get("seconds"),
            "phases": entry.get("phases"),
            "artifacts": {
                role: info.get("path") for role, info in sorted(artifacts.items())
            },
        }
        await send_json(writer, 200, envelope, headers=headers)

    async def _respond_result(
        self,
        writer: asyncio.StreamWriter,
        spec: api.CommandSpec,
        result: api.RunResult,
        digest: str,
        cache_state: str,
    ) -> None:
        manifest_digest = getattr(result, "manifest_digest", None)
        headers = self._headers(digest, cache_state, manifest_digest)
        if spec.stream_role is not None:
            path = Path(getattr(result, "artifacts")[spec.stream_role])
            await self._send_artifact(writer, path, headers)
            return
        envelope: dict[str, Any] = {
            "command": spec.name,
            "status": "ok",
            "cached": cache_state != "miss",
            "config_digest": digest,
            "manifest_digest": manifest_digest,
            "artifacts": {
                role: str(path)
                for role, path in sorted(getattr(result, "artifacts", {}).items())
            },
        }
        if isinstance(result, api.ProbeResult):
            envelope["device"] = result.device
            envelope["amenable"] = result.amenable
            envelope["distrusted_but_trusted"] = result.distrusted_but_trusted
        elif isinstance(result, api.CheckResult):
            envelope["ok"] = result.ok
            envelope["drifted"] = result.drifted
            envelope["cells"] = result.cells
        await send_json(writer, 200, envelope, headers=headers)

    async def _send_artifact(
        self, writer: asyncio.StreamWriter, path: Path, headers: dict[str, str]
    ) -> None:
        """Send a stored ``iotls-trace-stream/1`` body, opened before any
        byte goes out so a vanished file still gets a clean error."""
        try:
            handle = await asyncio.to_thread(path.open, "rb")
        except FileNotFoundError:
            # A retry recomputes: lookup_config skips dangling artifacts.
            raise self._retry_later(
                503, f"artifact vanished before it was sent: {path.name}"
            ) from None
        try:
            await send_file(writer, handle, headers)
        finally:
            handle.close()


async def serve(config: ServeConfig = ServeConfig()) -> None:
    """Start a fleet service and run until cancelled (the CLI entry)."""
    # Constructing the service opens the access log on disk, so keep
    # even that first touch of the filesystem off the event loop.
    service = await asyncio.to_thread(FleetService, config)
    await service.start()
    print(
        f"iotls serve: listening on http://{config.host}:{service.port} "
        f"(workers={config.workers}, executors={config.executors}, "
        f"queue={config.queue_size})",
        flush=True,
    )
    try:
        await service.serve_forever()
    finally:
        await service.stop()
