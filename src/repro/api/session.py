"""The :class:`Session` — the stateful front door of the package.

A session owns what should outlive a single analysis:

* an :class:`~repro.pipeline.ArtifactCache` (bounded, thread-safe) shared
  by every analysis and in-process sweep scenario the session runs, so
  scenario variants replay each other's effort-independent artifacts;
* a small LRU of built designs, one shared :class:`~repro.api.Design` per
  preset name or :class:`~repro.soc.config.SoCConfig` content, so repeat
  analyses and in-process sweep scenarios never rebuild the SoC;
* the default flow switches (:class:`FlowConfig`, which also selects the
  sources) and run knobs (:class:`~repro.api.RunOptions`) applied when a
  call does not override them.

``jobs`` is the one concurrency knob.  Above 1, ``Session.analyze`` runs
the fault population on the warm :class:`~repro.runtime.WorkerPool`, and
``Session.sweep`` over at least as many scenarios as the pool has workers
runs one scenario per task on that same pool; every other sweep runs its
scenarios in-process, one after another (each analysis still sharding on
the pool when ``jobs`` > 1).  ``Session.sweep`` expands a :class:`~repro.api.ScenarioGrid`,
streams per-scenario results as they complete and aggregates them into a
:class:`~repro.api.SweepReport`.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict
from contextlib import closing
from dataclasses import replace as _replace
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Union)

from repro.core.results import FlowConfig, OnlineUntestableReport
from repro.api.design import Design
from repro.api.grid import Scenario, ScenarioGrid
from repro.api.options import DEFAULT_RUN_OPTIONS, RunOptions
from repro.api.sweep import SweepReport, SweepResult
from repro.pipeline import ArtifactCache, run_flow
from repro.pipeline.cache import memory_map_key
from repro.soc.config import SoCConfig

#: Default LRU bound of a session's artifact cache — large enough for every
#: step of a few hundred scenarios, small enough to bound long sweeps.
DEFAULT_CACHE_ENTRIES = 512

#: Built designs a session keeps (LRU): enough for the presets a service
#: answers, few enough that a config sweep does not hold every netlist.
DESIGN_MEMO_ENTRIES = 4


class _SweepJob:
    """Pool-installed state of a ``jobs > 1`` sweep: one worker session.

    Installed for one sweep and forgotten when it ends, so every scenario
    a worker runs for that sweep shares the worker's session cache, and
    the cache goes with the sweep.  The worker session leaves ``jobs``
    unset, so a daemonic pool worker never starts a pool of its own, and
    it opens the parent's durable store from its location: workers cannot
    share the parent's in-memory LRU, but they share the on-disk store.
    """

    def __init__(self, flow_config: Optional[FlowConfig],
                 options: RunOptions) -> None:
        self.flow_config = flow_config
        #: Session and call options merged, ``jobs`` unset, the store
        #: reduced to its location (:meth:`RunOptions.with_store_spec`).
        self.options = options
        self._session: Optional["Session"] = None

    def run_scenario(self, scenario: Scenario) -> Dict[str, object]:
        """Worker-side: run one scenario, return its result as JSON.

        A failing scenario comes back as its ``error`` text, so a
        :class:`~repro.runtime.WorkerTaskError` only ever means the pool
        itself broke.
        """
        if self._session is None:
            self._session = Session(options=RunOptions(
                store=self.options.store))
        try:
            return self._session._run_scenario(
                scenario, self.flow_config,
                _replace(self.options, store=None)).to_json_dict()
        finally:
            # Durable before the result leaves the worker: whoever reads
            # the store next sees every artifact of this scenario.
            self._session.cache.flush()


class Session:
    """Reusable analysis context: cache + flow switches + run options."""

    def __init__(self, *,
                 cache: Optional[ArtifactCache] = None,
                 cache_entries: Optional[int] = DEFAULT_CACHE_ENTRIES,
                 options: Optional[RunOptions] = None,
                 flow_config: Optional[FlowConfig] = None) -> None:
        #: The session-default run knobs; per-call options win over them.
        self.options = options if options is not None else RunOptions()
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
            #: which step results persist across processes and machines —
            #: see :mod:`repro.store`.
            self.cache = ArtifactCache(max_entries=cache_entries,
                                       store=self.options.store)
        self.flow_config = flow_config
        self._designs: "OrderedDict[tuple, Design]" = OrderedDict()
        self._designs_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # single-design analysis
    # ------------------------------------------------------------------ #
    def design(self, target, *, memory_map=None,
               label: Optional[str] = None) -> Design:
        """Coerce any accepted target spelling to a :class:`Design`.

        A preset name or :class:`~repro.soc.config.SoCConfig` returns the
        session's one shared design for that configuration, built on first
        use and kept in a small LRU keyed by content (two equal configs
        share it; another ``label`` is a relabelled view of the same
        netlist).  Its netlist is therefore shared by every later call:
        never mutate it — mutate ``netlist.clone()`` instead, as every
        manipulation pass does.  An explicit ``Design``, ``SoC`` or
        ``Netlist``, and any ``memory_map`` override, bypass the memo.
        """
        if isinstance(target, str) and memory_map is None:
            target, label = SoCConfig.from_name(target), label or target
        if not isinstance(target, SoCConfig) or memory_map is not None:
            return Design.coerce(target, memory_map=memory_map, label=label)
        # Content, not the config object: MemoryMap compares by identity.
        key = (target.cpu, memory_map_key(target.memory_map),
               target.insert_scan)
        with self._designs_lock:
            design = self._designs.get(key)
            if design is not None:
                self._designs.move_to_end(key)
        if design is None:
            # Built outside the lock: one slow build must not stall other
            # configs; a racing duplicate build loses to the first stored.
            built = Design.from_config(target, label=label)
            with self._designs_lock:
                design = self._designs.setdefault(key, built)
                self._designs.move_to_end(key)
                while len(self._designs) > DESIGN_MEMO_ENTRIES:
                    self._designs.popitem(last=False)
        wanted = label or design.name
        return design if design.label == wanted else design.with_label(wanted)

    def analyze(self, target, *,
                config: Optional[FlowConfig] = None,
                memory_map=None,
                faults: Optional[Iterable] = None,
                options: Optional[RunOptions] = None
                ) -> OnlineUntestableReport:
        """Analyze one design, applying session defaults where not overridden.

        ``target`` is anything :meth:`design` accepts; a preset name or
        config analyzes the session's shared design, whose netlist must
        never be mutated.  ``options`` (a
        :class:`RunOptions`) carries the per-call knobs; its set fields win
        over the session's.  ``config`` picks the paper's switches (default:
        the session's, else all on).  Results are memoised per step in the
        session cache, so re-analyzing the same design (or a structural
        clone, or a variant that only changes facets a step does not read)
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
        flow_config = config if config is not None else self.flow_config
        return run_flow(design.netlist, self.cache, config=flow_config,
                        options=self.options.merged_with(options),
                        memory_map=design.memory_map, faults=faults)

    # ------------------------------------------------------------------ #
    # sweeps
    # ------------------------------------------------------------------ #
    def iter_sweep(self, grid: Union[ScenarioGrid, Sequence[Scenario]], *,
                   options: Optional[RunOptions] = None,
                   config: Optional[FlowConfig] = None
                   ) -> Iterator[SweepResult]:
        """Run every grid scenario, yielding results *as they complete*.

        ``options`` applies to every scenario; each scenario's own run-axis
        values win over it.  With ``jobs`` > 1 (the session's or the
        call's) and at least as many scenarios as the pool has workers,
        each scenario is one task on the warm worker pool — restored
        reports then carry no detail objects — and results arrive in
        completion order; otherwise scenarios run in-process in grid order, each
        analysis sharding its faults over the pool as ``analyze`` does.
        Each :class:`~repro.api.SweepResult` carries its scenario index, so
        callers needing grid order can sort afterwards (``sweep`` does).  A
        failing scenario yields an error-carrying result rather than
        aborting the rest of the sweep.  A pooled sweep holds no lock
        between results: other ``jobs > 1`` work — from this loop or from
        another thread — shares the workers meanwhile.
        """
        scenarios = self._expand(grid)
        options = options if options is not None else RunOptions()
        pool = self.worker_pool(options)
        if pool is None or len(scenarios) < pool.workers:
            for scenario in scenarios:
                yield self._run_scenario(scenario, config, options)
            return

        job = self._sweep_job(config, options)
        key = pool.ensure_job(f"sweep:{uuid.uuid4().hex}", lambda: job)
        try:
            with pool.session(key) as run:
                for scenario in scenarios:
                    run.submit("run_scenario", scenario)
                for _tag, _scenario, outcome in run.results():
                    yield SweepResult.from_json_dict(outcome)
        finally:
            # The worker sessions and their caches live as long as the
            # sweep; the durable store is what outlives it.
            pool.forget(key)

    def sweep(self, grid: Union[ScenarioGrid, Sequence[Scenario]], *,
              options: Optional[RunOptions] = None,
              config: Optional[FlowConfig] = None,
              on_result: Optional[Callable[[SweepResult], None]] = None
              ) -> SweepReport:
        """Run the whole grid and aggregate into a :class:`SweepReport`.

        ``on_result`` is invoked once per scenario in completion order (for
        progress reporting) before the results are sorted into grid order.
        An exception it raises aborts the sweep and releases the worker
        pool at once — the analysis service's cancel path.
        """
        before = self.cache.stats
        started = time.perf_counter()
        results = []
        with closing(self.iter_sweep(grid, options=options,
                                     config=config)) as stream:
            for result in stream:
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

    def _run_scenario(self, scenario: Scenario,
                      config: Optional[FlowConfig],
                      options: RunOptions) -> SweepResult:
        started = time.perf_counter()
        options = options.merged_with(scenario.options)
        result = SweepResult(index=scenario.index, label=scenario.label,
                             effort=DEFAULT_RUN_OPTIONS.merged_with(
                                 self.options).merged_with(
                                     options).effort.value)
        try:
            design = self.design(scenario.config, label=scenario.label)
            result.report = self.analyze(design, config=config,
                                         options=options)
            result.design_signature = design.signature
        except Exception as exc:  # noqa: BLE001 - the scenario's error
            result.error = f"{type(exc).__name__}: {exc}"
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def _sweep_job(self, config: Optional[FlowConfig],
                   options: RunOptions) -> _SweepJob:
        merged = _replace(self.options.merged_with(options), jobs=None,
                          store=self.cache.store).with_store_spec()
        return _SweepJob(config if config is not None else self.flow_config,
                         merged)

    # ------------------------------------------------------------------ #
    # parallel-runtime lifecycle
    # ------------------------------------------------------------------ #
    def worker_pool(self, options: Optional[RunOptions] = None):
        """The warm :class:`~repro.runtime.WorkerPool` of this session.

        Resolved from the process-global pool registry for the configured
        worker count (the session's ``jobs``, or ``options.jobs`` when a
        call sets it), so every analysis and sweep the session runs — and
        every other session configured identically — shares one set of
        warm workers with their installed netlists and job state.  Returns
        ``None`` when that count is unset or 1 (serial).
        """
        jobs = self.options.merged_with(options).jobs
        if jobs is None or jobs <= 1:
            return None
        from repro.runtime import get_pool
        from repro.simulation.sharded import resolve_jobs

        return get_pool(resolve_jobs(jobs))

    def pool_stats(self) -> List[Dict[str, object]]:
        """Stats snapshots of every live warm worker pool (may be empty)."""
        from repro.runtime import pool_stats
        return pool_stats()

    def close(self, *, shutdown_pools: bool = False) -> None:
        """Release session-held parallel resources.

        The warm worker pools are process-global (shared across sessions)
        and survive by default; ``shutdown_pools=True`` tears them down —
        what the analysis service does on drain.
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
        return f"Session(cache={self.cache.stats}, options={self.options!r})"
