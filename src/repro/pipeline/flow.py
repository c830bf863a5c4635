"""The paper's §4 flow: six fixed steps, run straight through.

The flow always runs the same steps in the same order.  Two foundation
steps build what every source needs:

* ``fault_list`` — the configured fault model's universe of the target
  netlist (or the caller's restricted universe);
* ``baseline`` — the faults already structurally untestable *before* any
  circuit manipulation (the "Original" row of Table I).

Four source steps follow, one per untestability source of the paper:

* ``scan_analysis`` (§3.1) — direct structural prune of the scan circuitry;
* ``debug_control`` (§3.2.1) — debug control inputs tied to mission constants;
* ``debug_observe`` (§3.2.2) — debug observation buses left floating;
* ``memory_analysis`` (§3.3) — address bits frozen by the mission memory map.

:data:`STEPS` is that table.  :func:`run_flow` runs the steps a
:class:`~repro.core.results.FlowConfig` selects through an
:class:`~repro.pipeline.cache.ArtifactCache`, each under the key
``(netlist signature, facet-restricted config key, step name)``; skips the
memory step when there is no memory map; credits every identified fault to
its first source in :data:`PAPER_SOURCE_ORDER` (so Table I does not depend
on which sources ran); and builds the
:class:`~repro.core.results.OnlineUntestableReport`.  Parallelism lives
below the steps: ``RunOptions.jobs`` puts each step's fault population on
the warm worker pool (:mod:`repro.runtime`).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Tuple)

from repro.core.classification import compute_baseline_untestable
from repro.core.debug_control import identify_debug_control_untestable
from repro.core.debug_observe import identify_debug_observe_untestable
from repro.core.memory_analysis import identify_memory_map_untestable
from repro.core.results import (FlowConfig, OnlineUntestableReport,
                                SourceSummary)
from repro.core.scan_analysis import identify_scan_untestable
from repro.faults.categories import (PAPER_SOURCE_ORDER,
                                     OnlineUntestableSource)
from repro.faults.faultlist import generate_fault_list
from repro.faults.models import Fault, resolve_fault_model
from repro.memory.memory_map import MemoryMap
from repro.netlist.compiled import netlist_signature
from repro.netlist.module import Netlist
from repro.pipeline.base import PassResult
from repro.pipeline.cache import (ArtifactCache, CacheKey,
                                  fault_restriction_key, memory_map_key)

if TYPE_CHECKING:  # pragma: no cover - repro.api imports this package
    from repro.api.options import RunOptions

#: The configuration facets a step result can depend on, in key order.  A
#: step keys only on the facets it reads: the effort-blind
#: ``scan_analysis`` then replays across scenario variants that only change
#: the ATPG effort or the memory map.  ``model`` is the fault model: every
#: step keys on it, so stuck-at and transition runs never share results.
CONFIG_FACETS = ("model", "effort", "ties", "memmap", "faults", "static",
                 "atpg")


class _Run:
    """The inputs of one flow run and the artifacts its steps publish."""

    def __init__(self, netlist: Netlist, memory_map: Optional[MemoryMap],
                 config: FlowConfig, options: "RunOptions",
                 faults: Optional[List[Fault]]) -> None:
        self.netlist = netlist
        self.memory_map = memory_map
        self.config = config
        self.faults = faults
        self.model = resolve_fault_model(options.fault_model)
        #: The run knobs the classification engines take as keywords.
        self.engine = {"effort": options.effort, "jobs": options.jobs,
                       "atpg_backend": options.atpg_backend}
        self.artifacts: Dict[str, Any] = {}


def _fault_list(run: _Run) -> PassResult:
    universe = (list(run.faults) if run.faults is not None
                else generate_fault_list(run.netlist,
                                         model=run.model).faults())
    return PassResult(artifacts={"fault_universe": universe,
                                 "fault_set": set(universe)})


def _baseline(run: _Run) -> PassResult:
    baseline = compute_baseline_untestable(
        run.netlist, run.artifacts["fault_universe"], **run.engine)
    return PassResult(artifacts={"baseline_untestable": baseline})


def _scan(run: _Run) -> PassResult:
    # Reads the netlist alone: its key carries only the fault model, which
    # decides what faults the traced sites contribute.
    scan = identify_scan_untestable(run.netlist, model=run.model)
    return PassResult(artifacts={"scan_result": scan},
                      identified=scan.untestable, details=scan)


def _debug_control(run: _Run) -> PassResult:
    ctrl = identify_debug_control_untestable(
        run.netlist, faults=run.artifacts["fault_universe"],
        baseline_untestable=run.artifacts["baseline_untestable"],
        **run.engine)
    return PassResult(artifacts={"debug_control_result": ctrl},
                      identified=ctrl.newly_untestable, details=ctrl)


def _debug_observe(run: _Run) -> PassResult:
    observe = identify_debug_observe_untestable(
        run.netlist, faults=run.artifacts["fault_universe"],
        baseline_untestable=run.artifacts["baseline_untestable"],
        **run.engine)
    return PassResult(artifacts={"debug_observe_result": observe},
                      identified=observe.newly_untestable, details=observe)


def _memory(run: _Run) -> PassResult:
    memory = identify_memory_map_untestable(
        run.netlist, memory_map=run.memory_map,
        faults=run.artifacts["fault_universe"],
        baseline_untestable=run.artifacts["baseline_untestable"],
        tie_flop_outputs=run.config.tie_flop_outputs,
        tie_flop_inputs=run.config.tie_flop_inputs, **run.engine)
    return PassResult(artifacts={"memory_result": memory},
                      identified=memory.newly_untestable, details=memory)


@dataclass(frozen=True)
class Step:
    """One row of the flow table.

    ``switch`` is the :class:`FlowConfig` field that selects a source step
    (foundation steps always run), ``detail_field`` the report attribute
    that receives its details and ``runtime_key`` its key in
    ``OnlineUntestableReport.runtimes``.
    """

    name: str
    compute: Callable[[_Run], PassResult]
    facets: Tuple[str, ...]
    runtime_key: str
    source: Optional[OnlineUntestableSource] = None
    switch: Optional[str] = None
    detail_field: Optional[str] = None


_ENGINE_FACETS = ("model", "effort", "faults", "static", "atpg")

#: The six steps in run order: the foundations, then the sources in the
#: paper's order.
STEPS: Tuple[Step, ...] = (
    Step("fault_list", _fault_list, ("model", "faults"), "fault_list"),
    Step("baseline", _baseline, _ENGINE_FACETS, "baseline"),
    Step("scan_analysis", _scan, ("model",), "scan",
         OnlineUntestableSource.SCAN, "run_scan", "scan_result"),
    Step("debug_control", _debug_control, _ENGINE_FACETS, "debug_control",
         OnlineUntestableSource.DEBUG_CONTROL, "run_debug_control",
         "debug_control_result"),
    Step("debug_observe", _debug_observe, _ENGINE_FACETS, "debug_observe",
         OnlineUntestableSource.DEBUG_OBSERVE, "run_debug_observe",
         "debug_observe_result"),
    Step("memory_analysis", _memory, CONFIG_FACETS, "memory_map",
         OnlineUntestableSource.MEMORY_MAP, "run_memory_map",
         "memory_result"),
)


def step_keys(netlist: Netlist, *,
              config: Optional[FlowConfig] = None,
              options: Optional["RunOptions"] = None,
              memory_map: Optional[MemoryMap] = None,
              faults: Optional[Iterable[Fault]] = None
              ) -> Dict[str, CacheKey]:
    """The cache key of every step, by step name.

    Unset ``options`` fields fall back to
    :data:`~repro.api.options.DEFAULT_RUN_OPTIONS`.  The key strings are
    the store's contract: an entry written under one is replayed only
    under the same bytes.
    """
    from repro.api.options import DEFAULT_RUN_OPTIONS

    cfg = config or FlowConfig()
    opts = DEFAULT_RUN_OPTIONS.merged_with(options)
    fragments = {
        "model": f"model={resolve_fault_model(opts.fault_model).name}",
        "effort": f"effort={opts.effort.name}",
        "ties": (f"tie_out={int(cfg.tie_flop_outputs)};"
                 f"tie_in={int(cfg.tie_flop_inputs)}"),
        "memmap": f"memmap={memory_map_key(memory_map)}",
        "faults": f"faults={fault_restriction_key(faults)}",
        # "prune1" and "learn1" once named the static pre-filter and
        # learning switches, both always on now; they stay so that keys
        # and stored artifacts keep their bytes.
        "static": "static=prune1:learn1",
        # ":engine" once named the default ATPG seed; it stays so that keys
        # and stored artifacts keep their bytes.
        "atpg": f"atpg={opts.atpg_backend or 'podem'}:engine",
    }
    signature = netlist_signature(netlist)
    return {step.name: (signature,
                        ";".join(fragments[facet] for facet in step.facets),
                        step.name)
            for step in STEPS}


def run_flow(netlist: Netlist, cache: ArtifactCache, *,
             config: Optional[FlowConfig] = None,
             options: Optional["RunOptions"] = None,
             memory_map: Optional[MemoryMap] = None,
             faults: Optional[Iterable[Fault]] = None
             ) -> OnlineUntestableReport:
    """Run the selected steps on ``netlist`` and build the report.

    ``config`` picks the paper's switches (default: every source on);
    ``options`` carries the run knobs (unset fields fall back to
    :data:`~repro.api.options.DEFAULT_RUN_OPTIONS`).  Every step goes
    through ``cache.get_or_compute``, which single-flights concurrent runs
    of one key (two service jobs on one session) and reads through to the
    cache's durable store.
    """
    from repro.api.options import DEFAULT_RUN_OPTIONS

    config = config or FlowConfig()
    options = DEFAULT_RUN_OPTIONS.merged_with(options)
    faults = list(faults) if faults is not None else None
    run = _Run(netlist, memory_map, config, options, faults)
    keys = step_keys(netlist, config=config, options=options,
                     memory_map=memory_map, faults=faults)
    results: Dict[Step, Tuple[PassResult, float]] = {}
    for step in STEPS:
        if step.switch is not None and not getattr(config, step.switch):
            continue
        if step.source is OnlineUntestableSource.MEMORY_MAP and (
                memory_map is None):
            continue
        started = time.perf_counter()
        result, _hit = cache.get_or_compute(
            keys[step.name], functools.partial(step.compute, run))
        results[step] = (result, time.perf_counter() - started)
        run.artifacts.update(result.artifacts)
    return _build_report(run, results)


def _build_report(run: _Run, results: Dict[Step, Tuple[PassResult, float]]
                  ) -> OnlineUntestableReport:
    universe = run.artifacts["fault_universe"]
    fault_set = run.artifacts["fault_set"]
    baseline = run.artifacts["baseline_untestable"]
    report = OnlineUntestableReport(
        netlist_name=run.netlist.name,
        total_faults=len(universe),
        fault_model=run.model.name,
        baseline_untestable=set(baseline),
    )
    by_source = {step.source: (result, runtime)
                 for step, (result, runtime) in results.items()
                 if step.source is not None}
    attributed = set(baseline)
    for source in PAPER_SOURCE_ORDER:
        if source not in by_source:
            continue
        result, runtime = by_source[source]
        identified = result.identified & fault_set
        new = identified - attributed
        attributed |= new
        report.sources.append(SourceSummary(
            source=source, identified=identified, attributed=new,
            runtime_seconds=runtime))
    for step, (result, runtime) in results.items():
        if step.detail_field is not None:
            setattr(report, step.detail_field, result.details)
        report.runtimes[step.runtime_key] = runtime
    return report
