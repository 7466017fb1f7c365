"""The warm worker pool: the one way work leaves the process.

A :class:`WarmWorkerPool` is one ``spawn`` ``ProcessPoolExecutor`` whose
processes start with the pool, are warmed by an initializer that
preloads the device catalog and the default testbed (the two expensive
pure-function caches worker tasks need), and serve every dispatch.

The process that holds a pool also keeps results for it
(:meth:`WarmWorkerPool.kept`): each passive device's trace replay comes
home once per pool, so every later trace, for any seed, scale or flow
cap, dispatches nothing and only draws that seed's flow counts here.
The store is the pool's, bounded by the keys callers ask for (the
40-device catalog), and a fresh pool starts empty.

Only ``iotls serve`` holds one: the fleet service owns a pool for its
lifetime and passes it to each run as ``RunConfig(pool=...)``.  One-shot
commands run serially, because spawning and warming processes costs
more than a single run saves (``docs/architecture.md`` has the numbers).

Determinism is untouched: ``Executor.map`` yields results in task order
regardless of which process finishes first.  Pool processes never
enable telemetry, so nothing of theirs comes home but results;
dispatching while the caller's telemetry is on raises ``ValueError``
rather than return counters that miss the pooled work.

A worker that dies breaks the executor: the pool swaps in a fresh one
and raises :class:`repro.api.WorkerCrashed` instead of hanging.  The
dispatch is not retried, since a task that kills its worker would kill
the next one too.  Kept results live in this process, so they outlive
the swap.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing, contextmanager
from time import perf_counter
from typing import Callable, Hashable, Iterator, Sequence, TypeVar

from .. import telemetry

__all__ = ["WarmWorkerPool"]

Task = TypeVar("Task")
Result = TypeVar("Result")
Key = TypeVar("Key", bound=Hashable)


def _warm_worker() -> None:
    """Pool-process initializer: preload the caches every task needs.

    Both are pure functions of fixed seeds, so warming moves their cost
    off the first task's critical path and changes no results.
    """
    from . import workers as worker_module

    worker_module._worker_testbed()
    worker_module._passive_profiles()


class WarmWorkerPool:
    """A reusable ``spawn`` executor with warm, preloaded processes.

    Its stats make the spawn amortisation auditable: ``dispatches``
    tasks landed on just ``workers`` processes.
    """

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError(f"a worker pool needs >= 2 workers, got {workers}")
        self.workers = workers
        self.dispatches = 0
        #: Wall seconds spent blocked on pool dispatches (map barriers
        #: plus imap item waits).  Monotonic-clock accounting for the
        #: run ledger's pool stats; never feeds a manifest.
        self.dispatch_seconds = 0.0
        #: (worker function, key) -> its result, kept in this process
        #: for the pool's lifetime (:meth:`kept`).
        self._kept: dict[tuple[Callable, Hashable], object] = {}
        #: Several serve run threads dispatch concurrently: the counters,
        #: the kept results and the executor swap after a crash share
        #: this lock.
        self._lock = threading.Lock()
        self._executor = self._spawn()

    def _spawn(self) -> ProcessPoolExecutor:
        executor = ProcessPoolExecutor(
            self.workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_warm_worker,
        )
        # A process starts per submit up to ``workers``: start them now.
        for _ in range(self.workers):
            executor.submit(int)
        return executor

    def _checkout(self, tasks: Sequence) -> ProcessPoolExecutor:
        if telemetry.enabled():
            raise ValueError(
                "pooled runs carry no telemetry: run serially to observe a run"
            )
        with self._lock:
            self.dispatches += len(tasks)
            return self._executor

    @contextmanager
    def _waiting_on(self, executor: ProcessPoolExecutor) -> Iterator[None]:
        """Time one wait on ``executor``; a dead worker becomes
        :class:`~repro.api.WorkerCrashed` once a fresh executor is in."""
        started = perf_counter()
        try:
            yield
        except BrokenProcessPool as exc:
            from ..api import WorkerCrashed

            with self._lock:
                # Concurrent dispatches see the same break: replace once.
                if self._executor is executor:
                    self._executor = self._spawn()
            raise WorkerCrashed(f"a pool worker died mid-dispatch: {exc}") from exc
        finally:
            with self._lock:
                self.dispatch_seconds += perf_counter() - started

    # ------------------------------------------------------------------
    def map(
        self, worker_fn: Callable[[Task], Result], tasks: Sequence[Task]
    ) -> list[Result]:
        """``Executor.map`` on the warm processes; results in task order."""
        executor = self._checkout(tasks)
        with self._waiting_on(executor):
            return list(executor.map(worker_fn, tasks))

    def imap(
        self, worker_fn: Callable[[Task], Result], tasks: Sequence[Task]
    ) -> Iterator[Result]:
        """:meth:`map`, yielded lazily; closing the iterator part-way
        cancels the tasks that have not started."""
        executor = self._checkout(tasks)
        with self._waiting_on(executor):
            results = executor.map(worker_fn, tasks)

        def _timed() -> Iterator[Result]:
            # Only waiting counts as dispatch, not the consumer's work.
            with closing(results):
                while True:
                    with self._waiting_on(executor):
                        try:
                            item = next(results)
                        except StopIteration:
                            return
                    yield item

        return _timed()

    def kept(
        self, worker_fn: Callable[[Key], Result], keys: Sequence[Key]
    ) -> Iterator[Result]:
        """``worker_fn(key)`` for each key, in order, each computed on
        the pool once and then kept in this process for its lifetime.

        Only the keys not kept yet are dispatched, at once through
        :meth:`imap`; a warm call dispatches nothing, but refuses
        telemetry all the same.  When two calls compute one key at
        once, the first result stored is the one both yield.  Closing
        the iterator part-way cancels the tasks that have not started.
        """
        with self._lock:
            missing = [key for key in keys if (worker_fn, key) not in self._kept]
        fresh = self.imap(worker_fn, missing)
        dispatched = set(missing)

        def _kept() -> Iterator[Result]:
            with closing(fresh):
                for key in keys:
                    if key in dispatched:
                        result = next(fresh)
                        with self._lock:
                            result = self._kept.setdefault((worker_fn, key), result)
                    else:
                        result = self._kept[worker_fn, key]
                    yield result

        return _kept()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Reuse accounting for benchmark documents and telemetry.

        ``dispatches`` is the number cache-effectiveness checks watch: a
        served-from-cache request must leave it unchanged.
        """
        with self._lock:
            return {
                "workers": self.workers,
                "dispatches": self.dispatches,
                "reused_dispatches": max(0, self.dispatches - self.workers),
                "dispatch_seconds": round(self.dispatch_seconds, 4),
            }

    def close(self) -> None:
        """Cancel the tasks not yet started, let running ones finish,
        join the processes and drop the kept results; idempotent."""
        with self._lock:
            executor = self._executor
            self._kept.clear()
        executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WarmWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
