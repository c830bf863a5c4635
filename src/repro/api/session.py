"""The :class:`Session` — the stateful front door of the package.

A session owns the three things that should outlive a single analysis:

* an :class:`~repro.pipeline.ArtifactCache` (bounded, thread-safe) shared
  by every analysis and sweep the session runs, so scenario variants
  replay each other's effort-independent artifacts;
* an executor backend (:mod:`repro.api.executors`) deciding *how* sweep
  scenarios run — serially, on threads, or on worker processes;
* the default pass selection / ATPG effort / flow configuration applied
  when a call does not override them.

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

from repro.atpg.engine import AtpgEffort
from repro.core.results import FlowConfig, OnlineUntestableReport
from repro.faults.models import FaultModel
from repro.api.design import Design
from repro.api.executors import Executor, resolve_executor
from repro.api.grid import Scenario, ScenarioGrid
from repro.api.options import (RunOptions, fold_legacy_kwargs,
                               resolve_effort)
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
    effort: Optional[AtpgEffort]
    parallel_passes: Union[bool, int]
    #: The parent session's run options reduced to one picklable bundle
    #: (:meth:`RunOptions.with_store_spec`): the durable store crosses as
    #: its location — workers cannot share the parent's in-memory LRU, but
    #: they *can* share the on-disk store, so a process-backend sweep still
    #: reuses warm artifacts.
    options: Optional[RunOptions] = None


def _run_process_job(job: _ProcessJob) -> Dict[str, object]:
    """Worker-side scenario run: rebuild, analyze, return a JSON payload.

    Runs in a worker process, so nothing in-memory is shared with the
    parent: the design is regenerated from its config and the report
    travels back as its serializable core (detail objects stay behind).
    """
    started = time.perf_counter()
    opts = job.options or RunOptions()
    # Fresh, unshared worker session — but attached to the shared durable
    # store when the parent session has one.
    session = Session(cache_entries=None,
                      options=RunOptions(store=opts.store))
    design = job.scenario.build_design()
    report = session.analyze(design,
                             passes=list(job.passes) if job.passes else None,
                             parallel=job.parallel_passes,
                             config=job.flow_config,
                             options=RunOptions(
                                 effort=job.scenario.effort or job.effort,
                                 fault_model=job.scenario.fault_model,
                                 static_prune=job.scenario.static_prune,
                                 atpg_backend=(job.scenario.atpg_backend
                                               or opts.atpg_backend),
                                 atpg_seed=opts.atpg_seed))
    return {
        "label": job.scenario.label,
        "signature": design.signature,
        "effort": (job.scenario.effort or job.effort or
                   (job.flow_config.effort if job.flow_config
                    else FlowConfig().effort)).value,
        "elapsed_seconds": time.perf_counter() - started,
        "report": report.to_json_dict(),
    }


class Session:
    """Reusable analysis context: cache + executor + pass defaults."""

    def __init__(self, *,
                 executor: Union[str, Executor, None] = None,
                 max_workers: Optional[int] = None,
                 cache: Optional[ArtifactCache] = None,
                 cache_entries: Optional[int] = DEFAULT_CACHE_ENTRIES,
                 options: Optional[RunOptions] = None,
                 store=None,
                 passes: Optional[Sequence] = None,
                 effort: Union[AtpgEffort, str, None] = None,
                 flow_config: Optional[FlowConfig] = None,
                 parallel_passes: Union[bool, int] = False,
                 jobs: Optional[int] = None,
                 fault_model: Union[str, FaultModel, None] = None,
                 static_prune: Optional[bool] = None,
                 static_learning: Optional[bool] = None) -> None:
        #: The session-default run knobs as one normalized bundle.  The
        #: scattered keywords (``store``, ``effort``, ``jobs``, ...) are a
        #: deprecated spelling of the same thing: they warn once per
        #: process and fold into ``options`` (an explicit ``options=``
        #: field wins over its legacy twin).
        self.options = fold_legacy_kwargs(
            "Session", options,
            store=store, effort=effort, jobs=jobs,
            fault_model=fault_model, static_prune=static_prune,
            static_learning=static_learning)
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

    # Back-compat views of the options bundle: pre-redesign code read the
    # knobs as plain session attributes (``session.jobs`` etc.), so each
    # stays readable — they are one bundle field now.
    @property
    def effort(self) -> Optional[AtpgEffort]:
        return self.options.effort

    @property
    def jobs(self) -> Optional[int]:
        return self.options.jobs

    @property
    def fault_model(self) -> Optional[str]:
        return self.options.fault_model

    @property
    def static_prune(self) -> Optional[bool]:
        return self.options.static_prune

    @property
    def static_learning(self) -> Optional[bool]:
        return self.options.static_learning

    @property
    def atpg_backend(self) -> Optional[str]:
        return self.options.atpg_backend

    @property
    def atpg_seed(self) -> Optional[int]:
        return self.options.atpg_seed

    # ------------------------------------------------------------------ #
    # single-design analysis
    # ------------------------------------------------------------------ #
    def design(self, target, *, memory_map=None,
               label: Optional[str] = None) -> Design:
        """Coerce any accepted target spelling to a :class:`Design`."""
        return Design.coerce(target, memory_map=memory_map, label=label)

    def analyze(self, target, *,
                passes: Optional[Sequence] = None,
                effort: Union[AtpgEffort, str, None] = None,
                parallel: Union[bool, int, None] = None,
                config: Optional[FlowConfig] = None,
                memory_map=None,
                faults: Optional[Iterable] = None,
                options: Optional[RunOptions] = None,
                jobs: Optional[int] = None,
                fault_model: Union[str, FaultModel, None] = None,
                static_prune: Optional[bool] = None,
                static_learning: Optional[bool] = None
                ) -> OnlineUntestableReport:
        """Analyze one design, applying session defaults where not overridden.

        ``target`` is anything :meth:`design` accepts.  Per-call knobs
        travel in ``options`` (a :class:`RunOptions`); the scattered
        keywords (``effort``, ``jobs``, ...) are the deprecated spelling
        and fold into it.  Results are memoised per pass in the session
        cache, so re-analyzing the same design (or a structural clone, or
        a variant that only changes facets a pass does not read) replays
        instead of recomputing.  ``jobs`` > 1 runs the fault population on
        the warm worker pool (identical results, see
        :mod:`repro.simulation.sharded`).
        """
        call = fold_legacy_kwargs(
            "Session.analyze", options,
            effort=effort, jobs=jobs,
            fault_model=fault_model, static_prune=static_prune,
            static_learning=static_learning)
        if call.store is not None:
            raise ValueError(
                "store is a session-level knob: build the session with "
                "Session(options=RunOptions(store=...)) instead of "
                "passing it per analyze() call")
        design = self.design(target, memory_map=memory_map)
        flow_config = self._effective_flow_config(config, call)
        pipeline = self._pipeline(passes, flow_config, parallel)
        result = pipeline.run(design.netlist, config=flow_config,
                              memory_map=design.memory_map, faults=faults)
        return result.report

    # ------------------------------------------------------------------ #
    # sweeps
    # ------------------------------------------------------------------ #
    def iter_sweep(self, grid: Union[ScenarioGrid, Sequence[Scenario]], *,
                   executor: Union[str, Executor, None] = None,
                   passes: Optional[Sequence] = None,
                   effort: Union[AtpgEffort, str, None] = None,
                   config: Optional[FlowConfig] = None
                   ) -> Iterator[SweepResult]:
        """Run every grid scenario, yielding results *as they complete*.

        Completion order depends on the backend; each
        :class:`~repro.api.SweepResult` carries its scenario index, so
        callers needing grid order can sort afterwards (``sweep`` does).
        A failing scenario yields an error-carrying result rather than
        aborting the rest of the sweep.
        """
        scenarios = self._expand(grid)
        backend = (self.executor if executor is None
                   else resolve_executor(executor, self.max_workers))
        effort_default = resolve_effort(effort, self.effort)

        if backend.requires_pickling:
            jobs = [self._process_job(s, passes, config, effort_default)
                    for s in scenarios]
            worker = _run_process_job
        else:
            jobs = scenarios
            worker = lambda scenario: self._run_scenario(  # noqa: E731
                scenario, passes, config, effort_default)

        for index, outcome in backend.imap_unordered(worker, jobs):
            scenario = scenarios[index]
            if isinstance(outcome, BaseException):
                yield SweepResult(
                    index=scenario.index, label=scenario.label,
                    effort=self._effort_label(scenario, effort_default,
                                              config),
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
              effort: Union[AtpgEffort, str, None] = None,
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
                                      effort=effort, config=config):
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

    def _store_spec(self) -> Optional[str]:
        """A picklable respawn spec of the session's store, if one exists.

        Local directory stores reduce to their root path; an exotic custom
        backend instance has no string spelling, so process-backend workers
        then run store-less (the sweep still succeeds, just cold).
        """
        store = self.cache.store
        if store is None:
            return None
        root = getattr(store, "root", None)
        return str(root) if root is not None else None

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

    def _effective_flow_config(self, config: Optional[FlowConfig],
                               call: Optional[RunOptions] = None
                               ) -> FlowConfig:
        call = call if call is not None else RunOptions()
        flow_config = config if config is not None else self.flow_config
        flow_config = flow_config if flow_config is not None else FlowConfig()
        resolved = resolve_effort(call.effort, self.effort if config is None
                                  else None)
        if resolved is not None:
            flow_config = _replace(flow_config, effort=resolved)
        if call.jobs is not None:
            # Explicit per-call jobs wins over both the session default
            # and whatever the flow config carries (so jobs=1 can force a
            # serial run of a sharded config).
            flow_config = _replace(flow_config, jobs=call.jobs)
        elif self.jobs is not None and flow_config.jobs == 1:
            flow_config = _replace(flow_config, jobs=self.jobs)
        if call.fault_model is not None:
            # Explicit per-call model wins over the session default and the
            # flow config.
            flow_config = _replace(flow_config,
                                   fault_model=call.fault_model)
        elif self.fault_model is not None and config is None:
            # Like the effort default: the session model applies only when
            # no explicit config was handed in — FlowConfig(fault_model=
            # "stuck_at") passed by the caller must stay stuck-at.
            flow_config = _replace(flow_config, fault_model=self.fault_model)
        # Static-analysis and ATPG-portfolio knobs: explicit per-call wins;
        # the session default applies only when no explicit config was
        # handed in (same rule as the fault model above).
        if call.static_prune is not None:
            flow_config = _replace(flow_config,
                                   static_prune=call.static_prune)
        elif self.static_prune is not None and config is None:
            flow_config = _replace(flow_config,
                                   static_prune=self.static_prune)
        if call.static_learning is not None:
            flow_config = _replace(flow_config,
                                   static_learning=call.static_learning)
        elif self.static_learning is not None and config is None:
            flow_config = _replace(flow_config,
                                   static_learning=self.static_learning)
        if call.atpg_backend is not None:
            flow_config = _replace(flow_config,
                                   atpg_backend=call.atpg_backend)
        elif self.atpg_backend is not None and config is None:
            flow_config = _replace(flow_config,
                                   atpg_backend=self.atpg_backend)
        if call.atpg_seed is not None:
            flow_config = _replace(flow_config, atpg_seed=call.atpg_seed)
        elif self.atpg_seed is not None and config is None:
            flow_config = _replace(flow_config, atpg_seed=self.atpg_seed)
        return flow_config

    def _pipeline(self, passes: Optional[Sequence],
                  flow_config: FlowConfig,
                  parallel: Union[bool, int, None]) -> Pipeline:
        selection = passes if passes is not None else self.passes
        if selection is None:
            selection = default_pass_names(flow_config)
        parallel = self.parallel_passes if parallel is None else parallel
        max_workers = (parallel
                       if isinstance(parallel, int)
                       and not isinstance(parallel, bool) else None)
        return Pipeline(list(selection), parallel=bool(parallel),
                        max_workers=max_workers, cache=self.cache)

    def _run_scenario(self, scenario: Scenario,
                      passes: Optional[Sequence],
                      config: Optional[FlowConfig],
                      effort_default: Optional[AtpgEffort]) -> SweepResult:
        started = time.perf_counter()
        design = scenario.build_design()
        report = self.analyze(design, passes=passes, config=config,
                              options=RunOptions(
                                  effort=scenario.effort or effort_default,
                                  fault_model=scenario.fault_model,
                                  static_prune=scenario.static_prune,
                                  atpg_backend=scenario.atpg_backend))
        return SweepResult(
            index=scenario.index, label=scenario.label,
            design_signature=design.signature,
            effort=self._effort_label(scenario, effort_default, config),
            elapsed_seconds=time.perf_counter() - started,
            report=report)

    def _effort_label(self, scenario: Scenario,
                      effort_default: Optional[AtpgEffort],
                      config: Optional[FlowConfig] = None) -> str:
        effort = (scenario.effort or effort_default
                  or (config.effort if config is not None
                      else (self.flow_config.effort if self.flow_config
                            else FlowConfig().effort)))
        return effort.value

    def _process_job(self, scenario: Scenario, passes: Optional[Sequence],
                     config: Optional[FlowConfig],
                     effort_default: Optional[AtpgEffort]) -> _ProcessJob:
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
        # Ship the *effective* flow config so session-level defaults —
        # including the worker count — survive the process boundary
        # (worker sessions are built bare).
        defaults_set = any(
            getattr(self.options, name) is not None
            for name in ("jobs", "fault_model", "static_prune",
                         "static_learning", "atpg_backend", "atpg_seed"))
        flow_config = (self._effective_flow_config(config)
                       if (defaults_set
                           or config is not None
                           or self.flow_config is not None)
                       else None)
        options = _replace(self.options, store=self._store_spec())
        return _ProcessJob(scenario=scenario, passes=names,
                           flow_config=flow_config,
                           effort=effort_default,
                           parallel_passes=self.parallel_passes,
                           options=options)

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
                f"effort={self.effort.value if self.effort else None!r})")
