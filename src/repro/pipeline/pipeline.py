"""Dependency-resolving, optionally concurrent analysis-pass pipeline.

A :class:`Pipeline` owns an ordered set of analysis passes.  At run time it

1. seeds a :class:`~repro.pipeline.context.PipelineContext` with the target
   netlist, memory map, configuration and optional restricted fault universe;
2. executes the passes — serially in topological order, or concurrently on a
   thread pool, submitting each pass the moment its required artifacts exist
   (after ``baseline`` the four paper sources only share read-only inputs);
3. records a per-pass runtime and a :class:`PassEvent` trail;
4. attributes every identified fault to its *first* source in the paper's
   fixed order (scan → debug control → debug observe → memory map), so the
   Table I counts are identical no matter how the passes were scheduled;
5. assembles the same :class:`~repro.core.results.OnlineUntestableReport`
   the legacy :class:`~repro.core.flow.OnlineUntestableFlow` produced.

Pass selection is composable: hand :class:`Pipeline` pass names (resolved
through the registry, with transitive dependencies pulled in automatically)
or pass objects, or use the fluent :class:`PipelineBuilder`.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.core.results import (FlowConfig, OnlineUntestableReport,
                                SourceSummary)
from repro.faults.categories import PAPER_SOURCE_ORDER
from repro.faults.fault import StuckAtFault
from repro.memory.memory_map import MemoryMap
from repro.netlist.module import Netlist
from repro.pipeline.base import AnalysisPass, PassResult
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.context import SEED_ARTIFACTS, PipelineContext
from repro.pipeline.passes import (LEGACY_RUNTIME_KEYS, REPORT_DETAIL_FIELDS,
                                   default_pass_names)
from repro.pipeline.registry import DEFAULT_REGISTRY, PassRegistry


class PipelineError(RuntimeError):
    """Unresolvable pass selection or a pass failure."""


class DependencyCycleError(PipelineError):
    """The requires/provides graph of the selected passes has a cycle."""


@dataclass
class PassEvent:
    """One scheduling decision: a pass completed, was skipped, or replayed."""

    pass_name: str
    status: str                     # "completed" | "skipped" | "cached"
    runtime_seconds: float = 0.0
    reason: Optional[str] = None


@dataclass
class PipelineResult:
    """Everything a pipeline run produced."""

    context: PipelineContext
    results: Dict[str, PassResult] = field(default_factory=dict)
    runtimes: Dict[str, float] = field(default_factory=dict)
    events: List[PassEvent] = field(default_factory=list)
    order: List[str] = field(default_factory=list)
    report: OnlineUntestableReport = None  # filled in by Pipeline.run

    @property
    def executed(self) -> List[str]:
        return [e.pass_name for e in self.events if e.status == "completed"]

    @property
    def skipped(self) -> List[str]:
        return [e.pass_name for e in self.events if e.status == "skipped"]

    @property
    def cached(self) -> List[str]:
        return [e.pass_name for e in self.events if e.status == "cached"]


class Pipeline:
    """An ordered, dependency-resolved set of analysis passes."""

    def __init__(self, passes: Optional[Sequence[Union[str, AnalysisPass]]] = None,
                 *,
                 parallel: bool = False,
                 max_workers: Optional[int] = None,
                 cache: Optional[ArtifactCache] = None,
                 registry: Optional[PassRegistry] = None,
                 jobs: Optional[int] = None) -> None:
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        requested = passes if passes is not None else default_pass_names()
        self.passes = self._resolve(requested)
        self.parallel = parallel
        self.max_workers = max_workers
        self.cache = cache
        #: Default fault-population worker count, applied to runs whose
        #: FlowConfig leaves it at the serial default.
        self.jobs = jobs
        self._pass_index = {p.name: i for i, p in enumerate(self.passes)}

    @staticmethod
    def builder(registry: Optional[PassRegistry] = None) -> "PipelineBuilder":
        return PipelineBuilder(registry=registry)

    @property
    def pass_names(self) -> List[str]:
        return [p.name for p in self.passes]

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #
    def _resolve(self, requested: Sequence[Union[str, AnalysisPass]]
                 ) -> List[AnalysisPass]:
        selected: List[AnalysisPass] = []
        names: Set[str] = set()

        def add(pass_: AnalysisPass) -> None:
            if pass_.name not in names:
                names.add(pass_.name)
                selected.append(pass_)

        for item in requested:
            add(self.registry.get(item) if isinstance(item, str) else item)

        # Pull in transitive providers of required artifacts.
        index = 0
        while index < len(selected):
            pass_ = selected[index]
            index += 1
            for artifact in pass_.requires:
                if artifact in SEED_ARTIFACTS:
                    continue
                if any(artifact in other.provides for other in selected):
                    continue
                provider = self.registry.provider_of(artifact)
                if provider is None:
                    raise PipelineError(
                        f"no registered pass provides artifact {artifact!r} "
                        f"required by pass {pass_.name!r}")
                add(provider)

        # Each artifact must have exactly one provider within the pipeline.
        providers: Dict[str, str] = {}
        for pass_ in selected:
            for artifact in pass_.provides:
                if artifact in providers:
                    raise PipelineError(
                        f"artifact {artifact!r} is provided by both "
                        f"{providers[artifact]!r} and {pass_.name!r}")
                providers[artifact] = pass_.name

        return self._topological_order(selected, providers)

    @staticmethod
    def _topological_order(selected: List[AnalysisPass],
                           providers: Dict[str, str]) -> List[AnalysisPass]:
        by_name = {p.name: p for p in selected}
        dependencies: Dict[str, Set[str]] = {
            p.name: {providers[a] for a in p.requires if a in providers}
            for p in selected
        }
        ordered: List[AnalysisPass] = []
        placed: Set[str] = set()
        while len(ordered) < len(selected):
            ready = [p for p in selected
                     if p.name not in placed
                     and dependencies[p.name] <= placed]
            if not ready:
                stuck = sorted(set(by_name) - placed)
                raise DependencyCycleError(
                    f"dependency cycle among passes: {', '.join(stuck)}")
            for pass_ in ready:      # selection order keeps this deterministic
                ordered.append(pass_)
                placed.add(pass_.name)
        return ordered

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, target: Union["SoC", Netlist],  # noqa: F821
            *,
            config: Optional[FlowConfig] = None,
            memory_map: Optional[MemoryMap] = None,
            faults: Optional[Iterable[StuckAtFault]] = None) -> PipelineResult:
        """Run the passes on a SoC or bare netlist and build the report."""
        netlist, memory_map = _split_target(target, memory_map)
        config = self._apply_shard_defaults(config)
        ctx = PipelineContext(netlist, config=config, memory_map=memory_map,
                              initial_faults=faults, cache=self.cache)
        result = PipelineResult(context=ctx, order=self.pass_names)

        if self.parallel:
            self._run_parallel(ctx, result)
        else:
            self._run_serial(ctx, result)

        result.report = self._build_report(ctx, result)
        return result

    def _apply_shard_defaults(self,
                              config: Optional[FlowConfig]) -> Optional[FlowConfig]:
        """Fold the pipeline's jobs default into a run's config.

        A config that explicitly requests workers (``jobs != 1``) wins
        over the pipeline default.
        """
        if self.jobs is None:
            return config
        from dataclasses import replace

        config = config if config is not None else FlowConfig()
        return replace(config, jobs=self.jobs) if config.jobs == 1 else config

    def _run_serial(self, ctx: PipelineContext, result: PipelineResult) -> None:
        for pass_ in self.passes:
            missing = [a for a in pass_.requires
                       if a not in SEED_ARTIFACTS and not ctx.has(a)]
            if missing:
                result.events.append(PassEvent(
                    pass_.name, "skipped",
                    reason=f"missing artifacts: {', '.join(missing)}"))
                continue
            self._execute(pass_, ctx, result)

    def _run_parallel(self, ctx: PipelineContext, result: PipelineResult) -> None:
        pending: Dict[str, AnalysisPass] = {p.name: p for p in self.passes}
        finished: Set[str] = set()
        workers = self.max_workers or min(8, max(2, len(self.passes)))
        failure: List[BaseException] = []

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {}
            while pending or futures:
                # Submit every pass whose inputs exist; skip the doomed ones
                # (their providers finished without producing the artifact).
                progressed = True
                while progressed:
                    progressed = False
                    for name in list(pending):
                        pass_ = pending[name]
                        missing = [a for a in pass_.requires
                                   if a not in SEED_ARTIFACTS and not ctx.has(a)]
                        if not missing:
                            if not _applicable(pass_, ctx):
                                del pending[name]
                                finished.add(name)
                                result.events.append(PassEvent(
                                    name, "skipped", reason="not applicable"))
                                progressed = True
                                continue
                            del pending[name]
                            futures[pool.submit(
                                self._execute_body, pass_, ctx)] = pass_
                            progressed = True
                        elif all(self._provider_finished(a, finished)
                                 for a in missing):
                            del pending[name]
                            finished.add(name)
                            result.events.append(PassEvent(
                                name, "skipped",
                                reason=f"missing artifacts: {', '.join(missing)}"))
                            progressed = True
                if not futures:
                    break
                done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
                for future in done:
                    pass_ = futures.pop(future)
                    try:
                        status, pass_result, runtime = future.result()
                    except BaseException as exc:  # surface after drain
                        failure.append(exc)
                        finished.add(pass_.name)
                        continue
                    self._record(pass_, status, pass_result, runtime,
                                 ctx, result)
                    finished.add(pass_.name)
        if failure:
            raise failure[0]

    def _provider_finished(self, artifact: str, finished: Set[str]) -> bool:
        for pass_ in self.passes:
            if artifact in pass_.provides:
                return pass_.name in finished
        return True

    # ------------------------------------------------------------------ #
    def _execute(self, pass_: AnalysisPass, ctx: PipelineContext,
                 result: PipelineResult) -> None:
        if not _applicable(pass_, ctx):
            result.events.append(PassEvent(pass_.name, "skipped",
                                           reason="not applicable"))
            return
        status, pass_result, runtime = self._execute_body(pass_, ctx)
        self._record(pass_, status, pass_result, runtime, ctx, result)

    def _execute_body(self, pass_: AnalysisPass, ctx: PipelineContext):
        """Run (or replay from cache) one pass; returns (status, result, s)."""
        started = time.perf_counter()

        def compute() -> PassResult:
            pass_result = pass_.run(ctx)
            if not isinstance(pass_result, PassResult):
                raise PipelineError(
                    f"pass {pass_.name!r} returned "
                    f"{type(pass_result).__name__}, expected PassResult")
            missing = [a for a in pass_.provides
                       if a not in pass_result.artifacts]
            if missing:
                raise PipelineError(
                    f"pass {pass_.name!r} declared but did not provide "
                    f"artifacts: {', '.join(missing)}")
            return pass_result

        if self.cache is not None and getattr(pass_, "cacheable", True):
            # Single-flighted: concurrent runs of the same (signature,
            # facets, pass) — e.g. two sweep scenarios sharing a netlist —
            # coalesce into one computation; the others replay it.
            pass_result, hit = self.cache.get_or_compute(
                ctx.cache_key(pass_), compute,
                persist=getattr(pass_, "persist", True))
            status = "cached" if hit else "completed"
        else:
            pass_result, status = compute(), "completed"
        return status, pass_result, time.perf_counter() - started

    @staticmethod
    def _record(pass_: AnalysisPass, status: str, pass_result: PassResult,
                runtime: float, ctx: PipelineContext,
                result: PipelineResult) -> None:
        for key, value in pass_result.artifacts.items():
            ctx.set(key, value)
        result.results[pass_.name] = pass_result
        result.runtimes[pass_.name] = runtime
        result.events.append(PassEvent(pass_.name, status,
                                       runtime_seconds=runtime))

    # ------------------------------------------------------------------ #
    # attribution & report assembly
    # ------------------------------------------------------------------ #
    def _build_report(self, ctx: PipelineContext,
                      result: PipelineResult) -> OnlineUntestableReport:
        fault_universe = ctx.get("fault_universe") or []
        fault_set = ctx.get("fault_set") or set(fault_universe)
        baseline = ctx.get("baseline_untestable") or set()

        report = OnlineUntestableReport(
            netlist_name=ctx.netlist.name,
            total_faults=len(fault_universe),
            fault_model=ctx.fault_model.name,
            baseline_untestable=set(baseline),
        )

        source_passes = [p for p in self.passes
                         if p.source is not None
                         and p.name in result.results
                         and result.results[p.name].identified is not None]

        def attribution_rank(pass_: AnalysisPass):
            try:
                return (0, PAPER_SOURCE_ORDER.index(pass_.source))
            except ValueError:
                # Custom sources attribute after the paper's, pipeline order.
                return (1, self._pass_index[pass_.name])

        attributed: Set[StuckAtFault] = set(baseline)
        for pass_ in sorted(source_passes, key=attribution_rank):
            identified = result.results[pass_.name].identified & fault_set
            new = identified - attributed
            attributed |= new
            report.sources.append(SourceSummary(
                source=pass_.source, identified=identified, attributed=new,
                runtime_seconds=result.runtimes.get(pass_.name, 0.0)))

        for pass_name, attr in REPORT_DETAIL_FIELDS.items():
            if pass_name in result.results:
                setattr(report, attr, result.results[pass_name].details)

        static_proofs = ctx.get("static_proofs")
        if static_proofs:
            counts: Dict[str, int] = {}
            for proof in static_proofs.values():
                counts[proof.category] = counts.get(proof.category, 0) + 1
            report.static_proof_counts = counts

        report.runtimes = {
            LEGACY_RUNTIME_KEYS.get(name, name): runtime
            for name, runtime in result.runtimes.items()
        }
        return report


class PipelineBuilder:
    """Fluent construction of a :class:`Pipeline`.

    ::

        pipeline = (Pipeline.builder()
                    .with_default_passes()
                    .parallel(4)
                    .cached()
                    .build())
    """

    def __init__(self, registry: Optional[PassRegistry] = None) -> None:
        self._registry = registry
        self._passes: List[Union[str, AnalysisPass]] = []
        self._parallel = False
        self._max_workers: Optional[int] = None
        self._cache: Optional[ArtifactCache] = None

    def with_pass(self, pass_: Union[str, AnalysisPass]) -> "PipelineBuilder":
        self._passes.append(pass_)
        return self

    def with_passes(self, *passes: Union[str, AnalysisPass]) -> "PipelineBuilder":
        self._passes.extend(passes)
        return self

    def with_default_passes(self,
                            config: Optional[FlowConfig] = None
                            ) -> "PipelineBuilder":
        """The paper's §4 flow (honouring a FlowConfig's run_* switches)."""
        self._passes.extend(default_pass_names(config))
        return self

    def parallel(self, max_workers: Optional[int] = None) -> "PipelineBuilder":
        self._parallel = True
        self._max_workers = max_workers
        return self

    def serial(self) -> "PipelineBuilder":
        self._parallel = False
        self._max_workers = None
        return self

    def cached(self, cache: Optional[ArtifactCache] = None) -> "PipelineBuilder":
        self._cache = cache if cache is not None else ArtifactCache()
        return self

    def build(self) -> Pipeline:
        passes = self._passes or None
        return Pipeline(passes, parallel=self._parallel,
                        max_workers=self._max_workers, cache=self._cache,
                        registry=self._registry)


def _applicable(pass_: AnalysisPass, ctx: PipelineContext) -> bool:
    checker = getattr(pass_, "applicable", None)
    return bool(checker(ctx)) if callable(checker) else True


def _split_target(target, memory_map: Optional[MemoryMap]):
    """Mirror the legacy flow's SoC/Netlist target handling."""
    from repro.soc.soc_builder import SoC

    if isinstance(target, SoC):
        return target.cpu, memory_map or target.memory_map
    if isinstance(target, Netlist):
        return target, memory_map or target.annotations.get("memory_map")
    raise TypeError(
        f"analysis target must be a SoC or Netlist, got {type(target).__name__}")
