"""The :class:`Session` — the stateful front door of the package.

A session owns the three things that should outlive a single analysis:

* an :class:`~repro.pipeline.ArtifactCache` (bounded, thread-safe) shared
  by every analysis and sweep the session runs, so scenario variants
  replay each other's effort-independent artifacts;
* an executor backend (:mod:`repro.api.executors`) deciding *how* sweep
  scenarios run — serially, on threads, or on worker processes;
* the default pass selection, flow switches (:class:`FlowConfig`) and run
  knobs (:class:`~repro.api.RunOptions`) applied when a call does not
  override them.

``Session.analyze`` is the one-design entry point; ``Session.sweep``
expands a :class:`~repro.api.ScenarioGrid` and streams per-scenario
results as the backend completes them, aggregating into a
:class:`~repro.api.SweepReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as _replace
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from repro.core.results import FlowConfig, OnlineUntestableReport
from repro.api.design import Design
from repro.api.executors import Executor, resolve_executor
from repro.api.grid import Scenario, ScenarioGrid
from repro.api.options import DEFAULT_RUN_OPTIONS, RunOptions
from repro.api.sweep import SweepReport, SweepResult
from repro.pipeline import (ArtifactCache, Pipeline, default_pass_names)

#: Default LRU bound of a session's artifact cache — large enough for every
#: pass of a few hundred scenarios, small enough to bound long sweeps.
DEFAULT_CACHE_ENTRIES = 512


@dataclass(frozen=True)
class _ProcessJob:
    """The picklable payload shipped to process-pool workers."""

    scenario: Scenario
    passes: Optional[Tuple[str, ...]]
    flow_config: Optional[FlowConfig]
    parallel_passes: Union[bool, int]
    #: The session's and the sweep call's run options, merged, with the
    #: durable store reduced to its location (:meth:`RunOptions.
    #: with_store_spec`): workers cannot share the parent's in-memory LRU,
    #: but they *can* share the on-disk store, so a process-backend sweep
    #: still reuses warm artifacts.
    options: RunOptions


def _run_process_job(job: _ProcessJob) -> Dict[str, object]:
    """Worker-side scenario run: rebuild, analyze, return a JSON payload.

    Runs in a worker process, so nothing in-memory is shared with the
    parent: the design is regenerated from its config and the report
    travels back as its serializable core (detail objects stay behind).
    """
    started = time.perf_counter()
    # Fresh, unshared worker session — but attached to the shared durable
    # store when the parent session has one.
    session = Session(cache_entries=None,
                      options=RunOptions(store=job.options.store))
    design = job.scenario.build_design()
    options = _replace(job.options, store=None).merged_with(
        job.scenario.options)
    report = session.analyze(design,
                             passes=list(job.passes) if job.passes else None,
                             parallel=job.parallel_passes,
                             config=job.flow_config,
                             options=options)
    return {
        "label": job.scenario.label,
        "signature": design.signature,
        "effort": _effort_label(options),
        "elapsed_seconds": time.perf_counter() - started,
        "report": report.to_json_dict(),
    }


def _effort_label(options: RunOptions) -> str:
    return DEFAULT_RUN_OPTIONS.merged_with(options).effort.value


class Session:
    """Reusable analysis context: cache + executor + pass defaults."""

    def __init__(self, *,
                 executor: Union[str, Executor, None] = None,
                 max_workers: Optional[int] = None,
                 cache: Optional[ArtifactCache] = None,
                 cache_entries: Optional[int] = DEFAULT_CACHE_ENTRIES,
                 options: Optional[RunOptions] = None,
                 passes: Optional[Sequence] = None,
                 flow_config: Optional[FlowConfig] = None,
                 parallel_passes: Union[bool, int] = False) -> None:
        #: The session-default run knobs; per-call options win over them.
        self.options = options if options is not None else RunOptions()
        self.executor = resolve_executor(executor, max_workers)
        self.max_workers = max_workers
        if cache is not None:
            if self.options.store is not None and (
                    cache.store is not self.options.store):
                raise ValueError(
                    "pass either an explicit cache or a store spec, not "
                    "both (attach the store when building the cache: "
                    "ArtifactCache(store=...))")
            self.cache = cache
        else:
            #: ``store`` makes the cache durable: a path (or
            #: "backend:location" spec, or ArtifactStore instance) under
            #: which pass results persist across processes and machines —
            #: see :mod:`repro.store`.
            self.cache = ArtifactCache(max_entries=cache_entries,
                                       store=self.options.store)
        self.passes = list(passes) if passes is not None else None
        self.flow_config = flow_config
        self.parallel_passes = parallel_passes

    # ------------------------------------------------------------------ #
    # single-design analysis
    # ------------------------------------------------------------------ #
    def design(self, target, *, memory_map=None,
               label: Optional[str] = None) -> Design:
        """Coerce any accepted target spelling to a :class:`Design`."""
        return Design.coerce(target, memory_map=memory_map, label=label)

    def analyze(self, target, *,
                passes: Optional[Sequence] = None,
                parallel: Union[bool, int, None] = None,
                config: Optional[FlowConfig] = None,
                memory_map=None,
                faults: Optional[Iterable] = None,
                options: Optional[RunOptions] = None
                ) -> OnlineUntestableReport:
        """Analyze one design, applying session defaults where not overridden.

        ``target`` is anything :meth:`design` accepts.  ``options`` (a
        :class:`RunOptions`) carries the per-call knobs; its set fields win
        over the session's.  ``config`` picks the paper's switches (default:
        the session's, else all on).  Results are memoised per pass in the
        session cache, so re-analyzing the same design (or a structural
        clone, or a variant that only changes facets a pass does not read)
        replays instead of recomputing.  ``jobs`` > 1 runs the fault
        population on the warm worker pool (identical results, see
        :mod:`repro.simulation.sharded`).
        """
        if options is not None and options.store is not None:
            raise ValueError(
                "store is a session-level knob: build the session with "
                "Session(options=RunOptions(store=...)) instead of "
                "passing it per analyze() call")
        design = self.design(target, memory_map=memory_map)
        run = DEFAULT_RUN_OPTIONS.merged_with(self.options).merged_with(
            options)
        flow_config = config if config is not None else self.flow_config
        pipeline = self._pipeline(passes, flow_config, run, parallel)
        result = pipeline.run(design.netlist, config=flow_config,
                              options=run, memory_map=design.memory_map,
                              faults=faults)
        return result.report

    # ------------------------------------------------------------------ #
    # sweeps
    # ------------------------------------------------------------------ #
    def iter_sweep(self, grid: Union[ScenarioGrid, Sequence[Scenario]], *,
                   executor: Union[str, Executor, None] = None,
                   passes: Optional[Sequence] = None,
                   options: Optional[RunOptions] = None,
                   config: Optional[FlowConfig] = None
                   ) -> Iterator[SweepResult]:
        """Run every grid scenario, yielding results *as they complete*.

        ``options`` applies to every scenario; each scenario's own run-axis
        values win over it.  Completion order depends on the backend; each
        :class:`~repro.api.SweepResult` carries its scenario index, so
        callers needing grid order can sort afterwards (``sweep`` does).
        A failing scenario yields an error-carrying result rather than
        aborting the rest of the sweep.
        """
        scenarios = self._expand(grid)
        backend = (self.executor if executor is None
                   else resolve_executor(executor, self.max_workers))
        options = options if options is not None else RunOptions()

        if backend.requires_pickling:
            jobs = [self._process_job(s, passes, config, options)
                    for s in scenarios]
            worker = _run_process_job
        else:
            jobs = scenarios
            worker = lambda scenario: self._run_scenario(  # noqa: E731
                scenario, passes, config, options)

        for index, outcome in backend.imap_unordered(worker, jobs):
            scenario = scenarios[index]
            if isinstance(outcome, BaseException):
                yield SweepResult(
                    index=scenario.index, label=scenario.label,
                    effort=_effort_label(self.options.merged_with(
                        options).merged_with(scenario.options)),
                    error=f"{type(outcome).__name__}: {outcome}")
            elif isinstance(outcome, SweepResult):
                yield outcome
            else:  # process-backend JSON payload
                yield SweepResult(
                    index=scenario.index, label=outcome["label"],
                    design_signature=outcome["signature"],
                    effort=outcome["effort"],
                    elapsed_seconds=outcome["elapsed_seconds"],
                    report=OnlineUntestableReport.from_json_dict(
                        outcome["report"]))

    def sweep(self, grid: Union[ScenarioGrid, Sequence[Scenario]], *,
              executor: Union[str, Executor, None] = None,
              passes: Optional[Sequence] = None,
              options: Optional[RunOptions] = None,
              config: Optional[FlowConfig] = None,
              on_result: Optional[Callable[[SweepResult], None]] = None
              ) -> SweepReport:
        """Run the whole grid and aggregate into a :class:`SweepReport`.

        ``on_result`` is invoked once per scenario in completion order (for
        progress reporting) before the results are sorted into grid order.
        """
        backend = (self.executor if executor is None
                   else resolve_executor(executor, self.max_workers))
        before = self.cache.stats
        started = time.perf_counter()
        results = []
        for result in self.iter_sweep(grid, executor=backend, passes=passes,
                                      options=options, config=config):
            results.append(result)
            if on_result is not None:
                on_result(result)
        results.sort(key=lambda r: r.index)
        # Make the sweep's artifacts durable before reporting: anything
        # still in the write-behind lane lands now, so the store counters
        # below are final and a follow-up process sees every warm entry.
        self.cache.flush()
        after = self.cache.stats
        return SweepReport(
            results=results,
            grid_name=getattr(grid, "name", "") or "",
            executor=backend.name,
            elapsed_seconds=time.perf_counter() - started,
            cache_stats={key: value - before.get(key, 0)
                         for key, value in after.items()
                         if key != "entries"},
        )

    @property
    def cache_stats(self) -> Dict[str, int]:
        return self.cache.stats

    @property
    def store(self):
        """The durable artifact store behind the cache (None = memory only)."""
        return self.cache.store

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _expand(grid) -> List[Scenario]:
        if isinstance(grid, ScenarioGrid):
            return grid.scenarios()
        scenarios = list(grid)
        for item in scenarios:
            if not isinstance(item, Scenario):
                raise TypeError(
                    "sweep expects a ScenarioGrid or a sequence of "
                    f"Scenario objects, got {type(item).__name__}")
        return [(_replace(s, index=i) if s.index != i else s)
                for i, s in enumerate(scenarios)]

    def _pipeline(self, passes: Optional[Sequence],
                  flow_config: Optional[FlowConfig],
                  options: RunOptions,
                  parallel: Union[bool, int, None]) -> Pipeline:
        selection = passes if passes is not None else self.passes
        if selection is None:
            selection = default_pass_names(flow_config, options)
        parallel = self.parallel_passes if parallel is None else parallel
        max_workers = (parallel
                       if isinstance(parallel, int)
                       and not isinstance(parallel, bool) else None)
        return Pipeline(list(selection), parallel=bool(parallel),
                        max_workers=max_workers, cache=self.cache)

    def _run_scenario(self, scenario: Scenario,
                      passes: Optional[Sequence],
                      config: Optional[FlowConfig],
                      options: RunOptions) -> SweepResult:
        started = time.perf_counter()
        design = scenario.build_design()
        options = options.merged_with(scenario.options)
        report = self.analyze(design, passes=passes, config=config,
                              options=options)
        return SweepResult(
            index=scenario.index, label=scenario.label,
            design_signature=design.signature,
            effort=_effort_label(self.options.merged_with(options)),
            elapsed_seconds=time.perf_counter() - started,
            report=report)

    def _process_job(self, scenario: Scenario, passes: Optional[Sequence],
                     config: Optional[FlowConfig],
                     options: RunOptions) -> _ProcessJob:
        selection = passes if passes is not None else self.passes
        if selection is not None:
            names = tuple(p for p in selection if isinstance(p, str))
            if len(names) != len(selection):
                raise ValueError(
                    "ProcessExecutor sweeps require pass *names* (picklable); "
                    "got pass objects — register them and select by name, or "
                    "use the serial/thread executor")
        else:
            names = None
        # Worker sessions are built bare, so the session's defaults travel
        # in the job: its run options (store reduced to its location) and
        # its flow switches.
        merged = _replace(self.options.merged_with(options),
                          store=self.cache.store).with_store_spec()
        return _ProcessJob(scenario=scenario, passes=names,
                           flow_config=(config if config is not None
                                        else self.flow_config),
                           parallel_passes=self.parallel_passes,
                           options=merged)

    # ------------------------------------------------------------------ #
    # parallel-runtime lifecycle
    # ------------------------------------------------------------------ #
    def worker_pool(self):
        """The warm :class:`~repro.runtime.WorkerPool` of this session.

        Resolved from the process-global pool registry for the session's
        configured worker count, so every analysis the session runs — and
        every other session configured identically — shares one set of
        warm workers with their installed netlists and job state.  Returns
        ``None`` for a serial session (``jobs`` unset or 1).
        """
        if self.options.jobs is None or self.options.jobs <= 1:
            return None
        from repro.runtime import get_pool
        from repro.simulation.sharded import resolve_jobs

        return get_pool(resolve_jobs(self.options.jobs))

    def pool_stats(self) -> List[Dict[str, object]]:
        """Stats snapshots of every live warm worker pool (may be empty)."""
        from repro.runtime import pool_stats
        return pool_stats()

    def close(self, *, shutdown_pools: bool = False) -> None:
        """Release session-held parallel resources.

        The engines' warm worker pools are process-global (shared across
        sessions) and survive by default; ``shutdown_pools=True`` tears
        them down — what the analysis service does on drain.
        """
        if shutdown_pools:
            from repro.runtime import shutdown_pools as _shutdown
            _shutdown()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (f"Session(executor={self.executor.name!r}, "
                f"cache={self.cache.stats}, "
                f"options={self.options!r})")
