"""The warm worker pool: the one way work leaves the process.

A :class:`WarmWorkerPool` is one ``spawn`` pool whose processes are
started once, warmed by an initializer that preloads the device catalog
and the default testbed (the two expensive pure-function caches worker
tasks need), and then reused by every ``map``/``imap`` batch.

Only ``iotls serve`` holds one: the fleet service owns a pool for its
lifetime and passes it to each run as ``RunConfig(pool=...)``.  One-shot
commands run serially, because spawning and warming processes costs
more than a single run saves (``docs/architecture.md`` has the numbers).

Determinism is untouched: ``Pool.map``/``Pool.imap`` return results in
task order regardless of which process finishes first.  Pool processes
never enable telemetry, so nothing of theirs comes home but results;
dispatching while the caller's telemetry is on raises ``ValueError``
rather than return counters that miss the pooled work.
"""

from __future__ import annotations

import multiprocessing
import threading
from time import perf_counter
from typing import Callable, Iterator, Sequence, TypeVar

from .. import telemetry

__all__ = ["WarmWorkerPool"]

Task = TypeVar("Task")
Result = TypeVar("Result")

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
        #: Several serve executor threads dispatch onto the pool
        #: concurrently (Pool itself is thread-safe); the counters above
        #: need the same protection or concurrent += updates lose bumps.
        self._stats_lock = threading.Lock()
        #: Dispatches not yet drained: a ``map`` that has not returned or
        #: an ``imap`` not yet exhausted.  :meth:`close` reads it to pick
        #: its teardown.
        self._outstanding = 0
        self._closed = False

    def _begin(self, tasks: Sequence) -> None:
        if telemetry.enabled():
            raise ValueError(
                "pooled runs carry no telemetry: run serially to observe a run"
            )
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
        workers write nothing durable, so ``terminate()`` skips the interpreter-shutdown
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

