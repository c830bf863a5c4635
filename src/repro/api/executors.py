"""Pluggable execution backends for scenario sweeps.

An executor knows one thing: how to run a worker function over a list of
jobs and hand back ``(index, outcome)`` pairs *as they complete*, where the
outcome is either the worker's return value or the exception it raised.
That narrow contract is what lets :meth:`repro.api.Session.sweep` stream
:class:`~repro.api.SweepResult` items regardless of the backend:

* :class:`SerialExecutor` — in-process, in-order; zero overhead, the
  default, and the reference behaviour the others must match.
* :class:`ThreadExecutor` — a thread pool; scenarios share the session's
  :class:`~repro.pipeline.ArtifactCache` so variants replay each other's
  effort-independent artifacts.  The analyses are pure Python, but the
  per-scenario work releases the GIL rarely — the win is overlap between
  scenarios with heavy cache reuse, not raw parallel speed-up.
* :class:`ProcessExecutor` — a process pool for CPU-bound sweeps.  Jobs
  must be picklable and workers rebuild designs from their
  :class:`~repro.soc.config.SoCConfig`; the in-memory artifact cache is
  *not* shared across processes (each worker starts cold).

Custom backends (a cluster queue, an async gateway) implement the same
``imap_unordered`` method and set ``requires_pickling`` accordingly.
"""

from __future__ import annotations

from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                ThreadPoolExecutor, wait)
from typing import (Any, Callable, Iterator, Optional, Protocol, Sequence,
                    Tuple, Union, runtime_checkable)

Outcome = Union[Any, BaseException]


@runtime_checkable
class Executor(Protocol):
    """Structural protocol every sweep backend satisfies."""

    #: Short backend name ("serial" / "thread" / "process" / custom).
    name: str
    #: True when jobs cross a process boundary: the worker function and
    #: every job payload must then be picklable, and in-process state
    #: (caches, registries) is not shared with the workers.
    requires_pickling: bool

    def imap_unordered(self, fn: Callable[[Any], Any],
                       jobs: Sequence[Any]) -> Iterator[Tuple[int, Outcome]]:
        """Yield ``(job_index, result_or_exception)`` as jobs complete."""
        ...


class SerialExecutor:
    """Run jobs one after another in the calling thread (the default)."""

    name = "serial"
    requires_pickling = False

    def imap_unordered(self, fn, jobs) -> Iterator[Tuple[int, Outcome]]:
        for index, job in enumerate(jobs):
            try:
                yield index, fn(job)
            except BaseException as exc:  # noqa: BLE001 — reported per job
                yield index, exc


class _PoolExecutor:
    """Shared completion-streaming logic over a concurrent.futures pool."""

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers

    def _make_pool(self, n_jobs: int):
        raise NotImplementedError

    def imap_unordered(self, fn, jobs) -> Iterator[Tuple[int, Outcome]]:
        jobs = list(jobs)
        if not jobs:
            return
        with self._make_pool(len(jobs)) as pool:
            futures = {pool.submit(fn, job): index
                       for index, job in enumerate(jobs)}
            while futures:
                done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures.pop(future)
                    exc = future.exception()
                    yield index, (exc if exc is not None else future.result())


class ThreadExecutor(_PoolExecutor):
    """Run jobs on a thread pool, streaming completions."""

    name = "thread"
    requires_pickling = False

    def _make_pool(self, n_jobs: int):
        workers = self.max_workers or min(8, max(2, n_jobs))
        return ThreadPoolExecutor(max_workers=workers,
                                  thread_name_prefix="repro-sweep")


class ProcessExecutor(_PoolExecutor):
    """Run jobs on a process pool, streaming completions."""

    name = "process"
    requires_pickling = True

    def _make_pool(self, n_jobs: int):
        workers = self.max_workers or min(4, max(2, n_jobs))
        return ProcessPoolExecutor(max_workers=workers)


#: Backend name -> factory, the vocabulary accepted by ``Session`` and the
#: ``python -m repro sweep --executor`` flag.
EXECUTORS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def resolve_executor(spec: Union[str, Executor, None],
                     max_workers: Optional[int] = None) -> Executor:
    """Coerce an executor spec (name, instance or None) to a backend."""
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, str):
        try:
            factory = EXECUTORS[spec.strip().lower()]
        except KeyError:
            known = ", ".join(sorted(EXECUTORS))
            raise ValueError(
                f"unknown executor {spec!r}; expected one of: {known}"
            ) from None
        if factory is SerialExecutor:
            return factory()
        return factory(max_workers=max_workers)
    if isinstance(spec, Executor):
        return spec
    raise TypeError(
        f"executor must be a name or Executor instance, "
        f"got {type(spec).__name__}")
