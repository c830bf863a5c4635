"""Job lifecycle of the analysis service.

A :class:`JobManager` owns a bounded queue of analysis/sweep jobs and a
small pool of worker tasks that execute them against one shared
:class:`~repro.api.Session` (so every job enjoys the session's warm
artifact cache — and its durable store, when attached).  Analyses run in
a thread (via ``loop.run_in_executor``) so the asyncio side stays
responsive while PODEM grinds.

Lifecycle: ``queued → running → done | failed | cancelled``.  Admission
is governed by two limits, both surfaced to clients as structured
rejections with a ``retry_after`` hint rather than unbounded buffering:

* a global pending-queue bound (*backpressure* — the service never
  accepts more work than it is willing to remember), and
* a per-client cap on live (queued+running) jobs (*quota* — one chatty
  client cannot starve the rest).

Sweep jobs publish one event per completed scenario to any number of
subscribers; events are also kept on the job so a late subscriber
replays the full history.  Shutdown can *drain* (finish everything
admitted, reject new work) or abort (cancel queued jobs, interrupt
sweeps at the next scenario boundary).
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional

from repro.service import protocol


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: The job kinds the default runner understands, each with the non-knob
#: keys of its spec (every other key is a :class:`repro.api.RunOptions`
#: knob).
JOB_SPEC_KEYS = {"analyze": ("design",), "sweep": ("base", "axes", "name")}
JOB_KINDS = tuple(JOB_SPEC_KEYS)

#: Terminal jobs kept for ``result``/``status`` queries before the oldest
#: are forgotten.
DEFAULT_KEEP_RESULTS = 256


class SubmitRejected(Exception):
    """Admission refused — carries the protocol error code and a retry hint."""

    def __init__(self, code: str, detail: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(detail)
        self.code = code
        self.detail = detail
        self.retry_after = retry_after


class JobCancelled(Exception):
    """Raised inside a runner to land the job in ``cancelled`` (not
    ``failed``)."""


@dataclass
class Job:
    """One unit of service work and everything observed about it."""

    id: str
    client: str
    kind: str
    spec: Dict[str, Any]
    state: JobState = JobState.QUEUED
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    error: Optional[str] = None
    #: Terminal payload (``done`` only): the report/sweep JSON dict plus a
    #: rendered table.
    result: Optional[Dict[str, Any]] = None
    #: Event history (scenario completions, state changes, the closing
    #: ``done``) — replayed to late stream subscribers.
    events: List[Dict[str, Any]] = field(default_factory=list)
    subscribers: List["asyncio.Queue"] = field(default_factory=list)
    #: Set by ``cancel``; runners poll it at scenario boundaries.
    cancel_event: threading.Event = field(default_factory=threading.Event)

    def describe(self) -> Dict[str, Any]:
        """The status payload (summary only — no result body)."""
        return {
            "id": self.id,
            "client": self.client,
            "kind": self.kind,
            "state": self.state.value,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "events": len(self.events),
        }


class JobManager:
    """Bounded job queue + worker pool over one shared session.

    All public methods are event-loop-side (not thread-safe); the runner
    executes in a worker thread and talks back only through the
    thread-safe ``emit`` callable it is handed.  ``runner`` is injectable
    for tests: signature ``runner(job, emit) -> result dict``, raising
    :class:`JobCancelled` to land in ``cancelled``.
    """

    def __init__(self, session=None, *,
                 max_queue: int = 8,
                 max_jobs_per_client: int = 2,
                 workers: int = 1,
                 runner: Optional[Callable[[Job, Callable], Dict]] = None,
                 keep_results: int = DEFAULT_KEEP_RESULTS) -> None:
        if session is None and runner is None:
            from repro.api import Session
            session = Session()
        self.session = session
        self.max_queue = max_queue
        self.max_jobs_per_client = max_jobs_per_client
        self.workers = max(1, workers)
        self.keep_results = keep_results
        self._runner = runner or self._default_runner
        #: The default runner's specs are checked at submit; an injected
        #: runner keeps free-form specs.
        self._validate_specs = runner is None
        self._jobs: "Dict[str, Job]" = {}
        self._order: List[str] = []
        self._ids = itertools.count(1)
        self._pending: "Optional[asyncio.Queue]" = None
        self._worker_tasks: List["asyncio.Task"] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        #: Sliding window of recent job durations feeding ``retry_after``.
        self._durations: List[float] = []
        self.started_jobs = 0
        self.finished_jobs = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._pending = asyncio.Queue(maxsize=self.max_queue)
        self._worker_tasks = [
            asyncio.ensure_future(self._worker())
            for _ in range(self.workers)]

    def begin_drain(self) -> None:
        """Stop admitting; already-queued and running jobs keep going."""
        self._draining = True

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the pool: drain (finish admitted work) or abort it."""
        self._draining = True
        if not drain:
            for job in list(self._jobs.values()):
                if not job.state.terminal:
                    self.cancel(job.id)
        while any(not job.state.terminal for job in self._jobs.values()):
            await asyncio.sleep(0.02)
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        if self.session is not None:
            # Land every write-behind store publication before the process
            # that asked us to shut down inspects the store.
            await self._loop.run_in_executor(None, self.session.cache.flush)
            # Release the parallel runtime: every warm worker pool.  Jobs
            # re-warm lazily if the service is ever restarted in-process.
            closer = getattr(self.session, "close", None)
            if callable(closer):
                await self._loop.run_in_executor(
                    None, lambda: closer(shutdown_pools=True))

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def submit(self, kind: str, spec: Dict[str, Any],
               client: str = "anonymous") -> Job:
        if self._draining:
            raise SubmitRejected(protocol.ERR_SHUTTING_DOWN,
                                 "service is shutting down")
        if kind not in JOB_KINDS:
            raise SubmitRejected(
                protocol.ERR_BAD_REQUEST,
                f"unknown job kind {kind!r} (expected one of {JOB_KINDS})")
        if not isinstance(spec, dict):
            raise SubmitRejected(protocol.ERR_BAD_REQUEST,
                                 "job spec must be a JSON object")
        if self._validate_specs:
            try:
                self._parse_spec(kind, spec)
            except (TypeError, ValueError) as exc:
                raise SubmitRejected(protocol.ERR_BAD_REQUEST,
                                     str(exc)) from None
        live = sum(1 for job in self._jobs.values()
                   if job.client == client and not job.state.terminal)
        if live >= self.max_jobs_per_client:
            raise SubmitRejected(
                protocol.ERR_QUOTA_EXCEEDED,
                f"client {client!r} already has {live} live jobs "
                f"(limit {self.max_jobs_per_client})",
                retry_after=self.retry_after())
        job = Job(id=f"job-{next(self._ids):04d}", client=client,
                  kind=kind, spec=spec)
        try:
            self._pending.put_nowait(job.id)
        except asyncio.QueueFull:
            raise SubmitRejected(
                protocol.ERR_QUEUE_FULL,
                f"job queue is full ({self.max_queue} pending)",
                retry_after=self.retry_after()) from None
        self._jobs[job.id] = job
        self._order.append(job.id)
        self._trim()
        return job

    def retry_after(self) -> float:
        """How long a rejected client should back off before retrying.

        Estimated as (queue depth + 1) runs of the recent average job
        duration shared across the worker pool — crude, but monotone in
        actual load and never zero.
        """
        average = (sum(self._durations) / len(self._durations)
                   if self._durations else 1.0)
        depth = self._pending.qsize() if self._pending is not None else 0
        return max(0.1, average * (depth + 1) / self.workers)

    # ------------------------------------------------------------------ #
    # queries & control
    # ------------------------------------------------------------------ #
    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job {job_id!r}") from None

    def jobs(self) -> List[Job]:
        return [self._jobs[job_id] for job_id in self._order
                if job_id in self._jobs]

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: queued → immediate; running → at the runner's next
        cancellation point (scenario boundary); terminal → no-op."""
        job = self.get(job_id)
        if job.state.terminal:
            return job
        job.cancel_event.set()
        if job.state is JobState.QUEUED:
            # The id stays in the asyncio queue; the worker skips it on
            # dequeue because the state is already terminal.
            self._finish(job, JobState.CANCELLED)
        return job

    def subscribe(self, job: Job) -> "asyncio.Queue":
        """An event queue pre-loaded with the job's history; live events
        follow until the terminal ``done`` event (always delivered)."""
        queue: "asyncio.Queue" = asyncio.Queue()
        for event in job.events:
            queue.put_nowait(event)
        if not job.state.terminal:
            job.subscribers.append(queue)
        return queue

    def stats(self) -> Dict[str, Any]:
        by_state: Dict[str, int] = {state.value: 0 for state in JobState}
        for job in self._jobs.values():
            by_state[job.state.value] += 1
        payload: Dict[str, Any] = {
            "jobs": by_state,
            "queued": self._pending.qsize() if self._pending else 0,
            "queue_capacity": self.max_queue,
            "workers": self.workers,
            "draining": self._draining,
            "started_jobs": self.started_jobs,
            "finished_jobs": self.finished_jobs,
        }
        if self.session is not None:
            payload["cache"] = dict(self.session.cache_stats)
        from repro.runtime import pool_stats
        pools = pool_stats()
        if pools:
            payload["pools"] = pools
        return payload

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    async def _worker(self) -> None:
        while True:
            job_id = await self._pending.get()
            job = self._jobs.get(job_id)
            if job is None or job.state is not JobState.QUEUED:
                continue  # cancelled (or forgotten) while queued
            job.state = JobState.RUNNING
            job.started = time.time()
            self.started_jobs += 1
            self._publish(job, {"event": "state", "job_id": job.id,
                                "state": JobState.RUNNING.value})
            emit = self._thread_safe_emitter(job)
            try:
                result = await self._loop.run_in_executor(
                    None, self._runner, job, emit)
            except JobCancelled:
                self._finish(job, JobState.CANCELLED)
            except Exception as exc:  # noqa: BLE001 — jobs fail, service lives
                self._finish(job, JobState.FAILED,
                             error=f"{type(exc).__name__}: {exc}")
            else:
                if job.cancel_event.is_set():
                    self._finish(job, JobState.CANCELLED)
                else:
                    self._finish(job, JobState.DONE, result=result)

    def _thread_safe_emitter(self, job: Job) -> Callable[[Dict], None]:
        loop = self._loop

        def emit(event: Dict[str, Any]) -> None:
            loop.call_soon_threadsafe(self._publish, job, event)
        return emit

    def _publish(self, job: Job, event: Dict[str, Any]) -> None:
        job.events.append(event)
        for queue in job.subscribers:
            queue.put_nowait(event)

    def _finish(self, job: Job, state: JobState,
                result: Optional[Dict] = None,
                error: Optional[str] = None) -> None:
        job.state = state
        job.finished = time.time()
        job.result = result
        job.error = error
        self.finished_jobs += 1
        if job.started is not None:
            self._durations.append(job.finished - job.started)
            del self._durations[:-16]
        self._publish(job, {"event": "done", "job_id": job.id,
                            "state": state.value, "error": error})
        job.subscribers.clear()

    def _trim(self) -> None:
        """Forget the oldest terminal jobs beyond ``keep_results``."""
        excess = len(self._order) - self.keep_results
        if excess <= 0:
            return
        kept: List[str] = []
        for job_id in self._order:
            job = self._jobs.get(job_id)
            if excess > 0 and job is not None and job.state.terminal:
                del self._jobs[job_id]
                excess -= 1
            else:
                kept.append(job_id)
        self._order = kept

    # ------------------------------------------------------------------ #
    # the default runner — real analyses against the shared session
    # ------------------------------------------------------------------ #
    def _default_runner(self, job: Job,
                        emit: Callable[[Dict], None]) -> Dict[str, Any]:
        """Runs in a worker thread; must only touch the loop via ``emit``."""
        if job.kind == "analyze":
            return self._run_analyze(job)
        return self._run_sweep(job, emit)

    @staticmethod
    def _parse_spec(kind: str, spec: Dict[str, Any]):
        """The run options of a spec, plus its ScenarioGrid for sweeps.

        Raises ValueError (TypeError for a non-preset base) on an unknown
        key or a bad value.
        """
        from repro.api import ScenarioGrid
        from repro.api.options import options_from_spec

        options = options_from_spec(spec, extra_keys=JOB_SPEC_KEYS[kind],
                                    what=f"{kind} spec")
        if kind == "analyze":
            return options, None
        axes = spec.get("axes") or {}
        if not isinstance(axes, dict):
            raise ValueError("sweep spec: 'axes' must be an object")
        grid = ScenarioGrid(spec.get("base", "date13"), axes=axes,
                            name=spec.get("name"))
        return options, grid

    def _run_analyze(self, job: Job) -> Dict[str, Any]:
        options, _ = self._parse_spec(job.kind, job.spec)
        report = self.session.analyze(job.spec.get("design", "date13"),
                                      options=options)
        return {"table": report.to_table(), "report": report.to_json_dict()}

    def _run_sweep(self, job: Job,
                   emit: Callable[[Dict], None]) -> Dict[str, Any]:
        options, grid = self._parse_spec(job.kind, job.spec)

        def on_result(result) -> None:
            emit({
                "event": "scenario",
                "job_id": job.id,
                "index": result.index,
                "label": result.label,
                "ok": result.ok,
                "error": result.error,
                "elapsed_seconds": result.elapsed_seconds,
                "table": (result.report.to_table()
                          if result.report is not None else None),
                "result": result.to_json_dict(),
            })
            if job.cancel_event.is_set():
                raise JobCancelled(job.id)

        sweep = self.session.sweep(grid, options=options,
                                   on_result=on_result)
        return {"table": sweep.to_table(), "report": sweep.to_json_dict()}
