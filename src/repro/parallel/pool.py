"""The session pool: the one way ``--workers N`` work leaves the process.

Every parallel dispatch -- the campaign's device shards and the trace's
per-device chunks -- runs on a :class:`WarmWorkerPool`: one ``spawn``
pool whose processes are started once, warmed by an initializer that
preloads the device catalog and the default testbed (the two expensive
pure-function caches worker tasks need), and then reused by every
``map``/``imap`` batch of the session.

:func:`pool_session` is the activation point.  Callers write ``with
pool_session(workers) as pool:`` and dispatch on ``pool`` directly.
With no session active it opens (and on exit closes) a pool of its
own; inside an outer session it yields the outer pool, so the API
layer's one session per run -- or ``iotls serve``'s one session per
server -- puts a run's trace, audit and report phases on the same warm
processes and pays spawn + import once.

Determinism is untouched: ``Pool.map``/``Pool.imap`` return results in
task order regardless of which process finishes first, and pooled task
functions reset their telemetry runtime at task start (see
:mod:`repro.parallel.workers`), so per-task exports stay per-task
increments whether the process is fresh or reused.
"""

from __future__ import annotations

import multiprocessing
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Sequence, TypeVar

__all__ = ["WarmWorkerPool", "pool_session"]

Task = TypeVar("Task")
Result = TypeVar("Result")

#: The pool of the outermost open :func:`pool_session`.
_ACTIVE_POOL: "WarmWorkerPool | None" = None

#: Guards session creation/teardown: concurrent server request threads
#: entering :func:`pool_session` must agree on one pool rather than
#: racing to spawn several.  (``multiprocessing.Pool`` itself is safe
#: to dispatch onto from several threads at once.)
_SESSION_LOCK = threading.Lock()


def _warm_worker() -> None:
    """Pool-process initializer: preload the caches every task needs.

    Runs once per spawned process.  Building the default testbed and the
    passive-device catalog here moves their cost out of the first task's
    critical path and guarantees later tasks find them hot.  Both are
    pure functions of fixed seeds, so warming changes no results.
    """
    from . import workers as worker_module

    worker_module._worker_testbed()
    worker_module._passive_profiles()


class WarmWorkerPool:
    """A reusable ``spawn`` pool with warm, preloaded worker processes.

    Tracks dispatch statistics so the spawn-amortisation claim is
    auditable: ``tasks_dispatched`` across ``batches`` batches landed on
    just ``workers`` processes -- every task beyond the first per
    process rode a warm interpreter instead of paying a cold start.
    """

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError(f"a worker pool needs >= 2 workers, got {workers}")
        self.workers = workers
        context = multiprocessing.get_context("spawn")
        self._pool = context.Pool(processes=workers, initializer=_warm_worker)
        self.batches = 0
        self.tasks_dispatched = 0
        #: Wall seconds spent blocked on pool dispatches (map barriers
        #: plus imap item waits).  Monotonic-clock accounting for the
        #: run ledger's pool stats; never feeds a manifest.
        self.dispatch_seconds = 0.0
        #: Several serve executor threads dispatch onto one session pool
        #: concurrently (Pool itself is thread-safe); the counters above
        #: need the same protection or concurrent += updates lose bumps.
        self._stats_lock = threading.Lock()
        #: Dispatches not yet drained: a ``map`` that has not returned or
        #: an ``imap`` not yet exhausted.  :meth:`close` reads it to pick
        #: its teardown.
        self._outstanding = 0
        self._closed = False

    def _begin(self, tasks: Sequence) -> None:
        with self._stats_lock:
            self.batches += 1
            self.tasks_dispatched += len(tasks)
            self._outstanding += 1

    def _account(self, seconds: float, *, drained: bool = False) -> None:
        with self._stats_lock:
            self.dispatch_seconds += seconds
            if drained:
                self._outstanding -= 1

    # ------------------------------------------------------------------
    def map(
        self, worker_fn: Callable[[Task], Result], tasks: Sequence[Task]
    ) -> list[Result]:
        """``Pool.map`` on the warm processes; results in task order."""
        self._begin(tasks)
        started = perf_counter()
        try:
            return self._pool.map(worker_fn, tasks)
        finally:
            self._account(perf_counter() - started, drained=True)

    def imap(
        self, worker_fn: Callable[[Task], Result], tasks: Sequence[Task]
    ) -> Iterator[Result]:
        """``Pool.imap`` on the warm processes; yields in task order.

        The dispatch stays outstanding until the iterator is exhausted;
        one abandoned part-way keeps :meth:`close` on its joining path.
        """
        self._begin(tasks)
        started = perf_counter()
        iterator = self._pool.imap(worker_fn, tasks, chunksize=1)
        self._account(perf_counter() - started)

        def _timed() -> Iterator[Result]:
            # Only the time spent *waiting* on the pool counts as
            # dispatch; the consumer's per-item work happens between
            # next() calls and stays out of the tally.
            while True:
                begin = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    self._account(perf_counter() - begin, drained=True)
                    return
                self._account(perf_counter() - begin)
                yield item

        return _timed()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Reuse accounting for benchmark documents and telemetry.

        ``dispatches`` aliases ``tasks_dispatched``: it is the number
        cache-effectiveness checks watch (a served-from-cache request
        must leave it unchanged), published under the name the serve
        acceptance contract uses.
        """
        with self._stats_lock:
            return {
                "workers": self.workers,
                "batches": self.batches,
                "tasks_dispatched": self.tasks_dispatched,
                "dispatches": self.tasks_dispatched,
                "reused_dispatches": max(0, self.tasks_dispatched - self.workers),
                "dispatch_seconds": round(self.dispatch_seconds, 4),
            }

    def close(self) -> None:
        """Shut the processes down; idempotent.

        With every dispatch drained there is nothing left to wait for:
        workers write nothing durable (their telemetry came home inside
        the results), so ``terminate()`` skips the interpreter-shutdown
        wait a ``join`` pays, as a ``with Pool`` block does on exit.  While
        a dispatch is still outstanding (a serve shutdown with a run in
        flight), ``close()`` + ``join()`` lets its tasks finish instead.
        """
        with self._stats_lock:
            if self._closed:
                return
            self._closed = True
            drained = self._outstanding == 0
        if drained:
            self._pool.terminate()
        else:
            self._pool.close()
            self._pool.join()

    def __enter__(self) -> "WarmWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@contextmanager
def pool_session(workers: int):
    """Hold one warm pool open for a run's worth of parallel dispatches.

    Yields the session's :class:`WarmWorkerPool`, or ``None`` when
    ``workers < 2`` and no outer session is open (callers then run in
    process).  A nested session reuses the outer session's pool rather
    than spawning a second one.
    """
    global _ACTIVE_POOL
    with _SESSION_LOCK:
        if workers < 2 or _ACTIVE_POOL is not None:
            owns = False
            pool = _ACTIVE_POOL
        else:
            owns = True
            pool = WarmWorkerPool(workers)
            _ACTIVE_POOL = pool
    if not owns:
        yield pool
        return
    try:
        yield pool
    finally:
        with _SESSION_LOCK:
            _ACTIVE_POOL = None
        pool.close()
