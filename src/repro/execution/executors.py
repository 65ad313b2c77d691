"""Pluggable executor backends for sweep-cell evaluation.

An :class:`Executor` maps a picklable function over a sequence of items and
yields the results *in submission order*.  Three backends are provided:

* :class:`SerialExecutor`  -- plain in-process loop (the reference),
* :class:`ThreadExecutor`  -- thread pool; the numpy hot paths release the
  GIL, so this scales on multi-core machines without pickling anything,
* :class:`ProcessExecutor` -- process pool; sidesteps the GIL entirely and
  shards cells (and whole datasets, for tables) across worker processes.
  Requires the mapped function and items to be picklable, which is exactly
  what :class:`repro.execution.plan.EvaluationPlan` guarantees.

Because every sweep cell derives its RNG stream from the plan alone, all
three backends produce bit-identical results; the choice is purely a
throughput/latency decision.  Select one explicitly with the ``--executor``
CLI flag, the ``REPRO_SWEEP_EXECUTOR`` environment variable, or the
``executor=`` argument of :func:`repro.experiments.runner.run_noise_sweep`.

The pooled backends keep their worker pool **warm** across dispatches, so
one executor instance reused over the many ``evaluate_plans`` /
``run_sweeps`` calls of a figure or table run pays the fork/startup tax
once; call :meth:`Executor.close` (or use the executor as a context
manager) to release the workers.

**BLAS threads.**  A forked worker inherits OpenBLAS's full thread pool, so
``n`` process workers on ``n`` cores would run ``n * n`` BLAS threads that
spin against each other.  Every :class:`ProcessExecutor` worker therefore
pins OpenBLAS, in its pool initializer, to its share of the cores:
``min(parent_threads, max(1, cores // max_workers))``.  The ``min`` keeps a
user's own ``OPENBLAS_NUM_THREADS`` an upper bound.  The parent process and
the thread tier are deliberately left alone (pinning the parent slows the
serial paths).  Without an OpenBLAS thread-count API (MKL, Accelerate) the
policy is a no-op.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
    wait,
)
from typing import Callable, Iterator, Optional, Sequence, Tuple, TypeVar, Union

from repro.utils.cpus import available_cpus
from repro.utils.logging import get_logger

T = TypeVar("T")
R = TypeVar("R")

logger = get_logger("execution.executors")

#: Environment variable selecting the default executor backend.
SWEEP_EXECUTOR_ENV = "REPRO_SWEEP_EXECUTOR"

#: Environment variable providing the default worker count for sweeps.
SWEEP_WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Names accepted by :func:`resolve_executor`.
EXECUTOR_NAMES = ("serial", "thread", "process")


def resolve_worker_count(max_workers: Optional[int] = None) -> int:
    """Resolve a worker count for the pooled executors.

    ``None`` falls back to the ``REPRO_SWEEP_WORKERS`` environment variable
    (default 1, i.e. serial); 0 or a negative value means one worker per
    CPU available to this process (:func:`available_cpus`, which honours a
    container's CPU affinity).  Explicit values are honoured as given --
    note that the sweep is CPU-bound numpy, so more workers than cores
    oversubscribes and can *slow the sweep down*; prefer 0 over guessing a
    count.  Process workers additionally split the cores' BLAS threads
    between them (see the module docstring); thread workers do not.
    """
    if max_workers is None:
        env = os.environ.get(SWEEP_WORKERS_ENV, "").strip()
        try:
            max_workers = int(env) if env else 1
        except ValueError:
            raise ValueError(
                f"{SWEEP_WORKERS_ENV} must be an integer, got {env!r}"
            ) from None
    max_workers = int(max_workers)
    if max_workers <= 0:
        max_workers = available_cpus()
    return max_workers


#: ``(set, get)`` thread-count symbol pairs of OpenBLAS, in lookup order:
#: numpy 2 wheels (scipy-openblas), numpy 1.x wheels, then a plain OpenBLAS.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.lru_cache(maxsize=None)
def _openblas_threading() -> Optional[Tuple[Callable, Callable]]:
    """``(set_num_threads, get_num_threads)`` of the OpenBLAS numpy loaded,
    or ``None`` when numpy's BLAS is something else.

    Found through ``/proc/self/maps`` and resolved once per process; forked
    workers inherit the resolved functions, so pool start-up stays cheap.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({
                line.split()[-1] for line in handle
                if "openblas" in line.lower() and line.split()[-1].startswith("/")
            })
    except OSError:
        paths = []
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            setter = getattr(library, set_name, None)
            getter = getattr(library, get_name, None)
            if setter is None or getter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    logger.debug("no OpenBLAS thread-count API found; process workers keep "
                 "the BLAS default thread count")
    return None


def blas_threads() -> Optional[int]:
    """This process's OpenBLAS thread count, or ``None`` without OpenBLAS."""
    controls = _openblas_threading()
    return None if controls is None else int(controls[1]())


def _worker_blas_threads(max_workers: int) -> Optional[int]:
    """BLAS threads each of ``max_workers`` process workers gets: its share
    of the cores, never more than the parent runs with."""
    parent = blas_threads()
    if parent is None:
        return None
    return min(parent, max(1, available_cpus() // max_workers))


def _pin_blas_threads(threads: Optional[int]) -> None:
    """Process-pool initializer: pin this worker's OpenBLAS to ``threads``."""
    controls = _openblas_threading()
    if threads is not None and controls is not None:
        controls[0](threads)


class Executor:
    """Protocol for sweep executors: map with bounded parallelism.

    Subclasses must override at least one of :meth:`map` /
    :meth:`map_unordered`; each default is implemented in terms of the
    other (serial backends naturally provide ``map``, pooled backends
    provide completion-ordered ``map_unordered``).

    Executors are reusable across dispatches: the pooled backends keep their
    worker pool warm between ``map``/``map_unordered`` calls (amortising the
    per-sweep fork/startup tax across the many sweeps of a figure or table
    run) until :meth:`close` is called -- use the executor as a context
    manager, or rely on interpreter shutdown for one-shot scripts.
    """

    #: Backend name ("serial", "thread", "process").
    name: str = "abstract"

    def close(self) -> None:
        """Release pooled resources; the executor stays usable afterwards
        (the next dispatch simply starts a fresh pool)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(self, fn: Callable[..., R], *args, **kwargs) -> "Future[R]":
        """Run ``fn(*args, **kwargs)`` and return a :class:`Future`.

        The future-shaped entry point the serving scheduler dispatches
        micro-batches through: unlike :meth:`map`, callers get their result
        handle immediately and demultiplex completions themselves.  The
        default runs inline (a serial executor has no worker tier) and
        returns an already-resolved future; the pooled backends submit onto
        their warm pool.
        """
        future: Future[R] = Future()
        if not future.set_running_or_notify_cancel():  # pragma: no cover
            return future
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as error:  # noqa: BLE001 - delivered via future
            future.set_exception(error)
        return future

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
        """Yield ``fn(item)`` for every item, in the order given.

        Default: a reorder buffer over :meth:`map_unordered`.
        """
        buffered = {}
        next_index = 0
        for index, result in self.map_unordered(fn, items):
            buffered[index] = result
            while next_index in buffered:
                yield buffered.pop(next_index)
                next_index += 1

    def map_unordered(
        self, fn: Callable[[T], R], items: Sequence[T]
    ) -> Iterator[Tuple[int, R]]:
        """Yield ``(index, fn(item))`` pairs *as items complete*.

        This is the API the engine consumes: results are handed back the
        moment they exist (not head-of-line blocked behind slower items), so
        every finished cell can be persisted to the result store immediately
        and an interrupted run never loses completed work.  The default
        wraps :meth:`map`; the pooled backends override it with true
        completion order.
        """
        for index, result in enumerate(self.map(fn, items)):
            yield index, result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """Evaluate cells one after the other in the calling thread."""

    name = "serial"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
        for item in items:
            yield fn(item)


class _PoolExecutor(Executor):
    """Shared submit/collect logic of the thread and process backends.

    The pool is created lazily on the first dispatch and then kept **warm**
    across ``map``/``map_unordered`` calls: repeated ``evaluate_plans`` /
    ``run_sweeps`` batches on one executor instance pay the pool
    startup/fork tax once, not per sweep.  :meth:`close` (or the context
    manager) shuts the pool down; the next dispatch starts a fresh one.
    """

    #: Broken-pool recovery budget: how many times one dispatch may respawn
    #: its pool (a worker killed mid-cell breaks the whole stdlib pool)
    #: before giving up and propagating the break.
    max_pool_respawns = 3

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = resolve_worker_count(max_workers)
        self._pool = None

    def _make_pool(self, workers: int):
        raise NotImplementedError

    def _warm_pool(self):
        """The live worker pool, created on first use with ``max_workers``
        workers (both stdlib pools spawn workers on demand, so a small
        dispatch on a wide pool does not fork idle processes)."""
        if self._pool is None:
            self._pool = self._make_pool(self.max_workers)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def submit(self, fn: Callable[..., R], *args, **kwargs) -> "Future[R]":
        """Submit one call onto the warm pool and return its future.

        A pool broken by an earlier dispatch (killed worker) is discarded
        and respawned before submitting, so a long-lived serving scheduler
        keeps accepting work across worker crashes -- the same recovery
        contract :meth:`map_unordered` gives sweeps.
        """
        pool = self._warm_pool()
        if getattr(pool, "_broken", False):
            self.close()
            pool = self._warm_pool()
        try:
            return pool.submit(fn, *args, **kwargs)
        except (BrokenExecutor, RuntimeError):
            # Broke (or shut down under us) between the check and the
            # submit: respawn once and retry; a second failure propagates.
            self.close()
            return self._warm_pool().submit(fn, *args, **kwargs)

    def map_unordered(
        self, fn: Callable[[T], R], items: Sequence[T]
    ) -> Iterator[Tuple[int, R]]:
        items = list(items)
        if not items:
            return
        if self.max_workers <= 1 and self.name == "thread":
            # A one-thread pool is pure overhead; degrade to the serial path.
            yield from SerialExecutor().map_unordered(fn, items)
            return
        # A killed worker breaks the whole stdlib pool (every in-flight and
        # queued future errors with BrokenExecutor).  Recovery: salvage the
        # results that completed before the break, respawn the pool, and
        # resubmit only the unfinished items -- results already yielded (and
        # hence persisted by the engine) are never re-run.
        remaining = dict(enumerate(items))
        respawns = 0
        while remaining:
            pool = self._warm_pool()
            indices = {}
            broken: Optional[BaseException] = None
            try:
                for index, item in remaining.items():
                    indices[pool.submit(fn, item)] = index
                for future in as_completed(indices):
                    index = indices[future]
                    try:
                        result = future.result()
                    except BrokenExecutor as error:
                        broken = error
                        break
                    del remaining[index]
                    yield index, result
            finally:
                # Abandon queued work on error/interrupt so the generator's
                # close does not block behind cells nobody will consume, but
                # wait for cells already *running*: callers must be free to
                # e.g. delete a result store the moment an error surfaces
                # without racing late writes from in-flight workers.  The
                # pool itself stays warm for the next dispatch -- unless it
                # is *broken*, in which case it cannot serve further work
                # and is discarded.
                for future in indices:
                    future.cancel()
                wait(indices)
                if broken is not None or getattr(pool, "_broken", False):
                    self.close()
            if broken is None:
                return
            # Salvage cells that finished before the pool broke but had not
            # been handed back by as_completed yet.
            for future, index in indices.items():
                if index not in remaining or not future.done() or future.cancelled():
                    continue
                try:
                    result = future.result()
                except BaseException:  # noqa: BLE001 - resubmitted below
                    continue
                del remaining[index]
                yield index, result
            respawns += 1
            if respawns > self.max_pool_respawns:
                raise broken
            logger.warning(
                "%s pool broke (%s); respawn %d/%d, requeueing %d "
                "unfinished item(s)", self.name, broken, respawns,
                self.max_pool_respawns, len(remaining),
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class ThreadExecutor(_PoolExecutor):
    """Evaluate cells on a thread pool (today's PR-1 behaviour, extracted).

    The numpy encode/noise/GEMM hot paths release the GIL, so threads scale
    on real cores while sharing the prepared workloads without any
    serialisation cost.
    """

    name = "thread"

    def _make_pool(self, workers: int):
        return ThreadPoolExecutor(max_workers=workers)


class ProcessExecutor(_PoolExecutor):
    """Evaluate cells on a process pool.

    Workers rebuild (or, on fork-based platforms, inherit) the prepared
    workloads from the plans' workload references, memoised per process --
    see :mod:`repro.execution.engine`.  Results are bit-identical to the
    serial path because every cell's RNG derives from its plan alone.
    Each worker pins OpenBLAS to its share of the cores on start-up (see the
    module docstring).
    """

    name = "process"

    def _make_pool(self, workers: int):
        return ProcessPoolExecutor(
            max_workers=workers, initializer=_pin_blas_threads,
            initargs=(_worker_blas_threads(workers),),
        )


def resolve_executor(
    executor: Union[str, Executor, None] = None,
    max_workers: Optional[int] = None,
) -> Executor:
    """Resolve an executor selection into a backend instance.

    Parameters
    ----------
    executor:
        A ready :class:`Executor` (returned unchanged), a backend name
        ("serial", "thread", "process"), or ``None`` to fall back to the
        ``REPRO_SWEEP_EXECUTOR`` environment variable.  When neither is set
        the worker count decides: >1 workers selects the thread backend
        (the pre-existing ``max_workers`` behaviour), otherwise serial.
    max_workers:
        Worker count for the pooled backends; see
        :func:`resolve_worker_count` for the ``None``/0 conventions.
    """
    if isinstance(executor, Executor):
        return executor
    name = executor
    if name is None:
        name = os.environ.get(SWEEP_EXECUTOR_ENV, "").strip().lower() or None
    if name is None:
        return (
            ThreadExecutor(max_workers)
            if resolve_worker_count(max_workers) > 1
            else SerialExecutor()
        )
    name = str(name).strip().lower()
    if name == "serial":
        return SerialExecutor()
    if name == "thread":
        return ThreadExecutor(max_workers)
    if name == "process":
        return ProcessExecutor(max_workers)
    raise ValueError(
        f"unknown executor {executor!r}; choose from {EXECUTOR_NAMES} "
        f"(or set {SWEEP_EXECUTOR_ENV})"
    )
