"""The paper's §4 flow expressed as registered pipeline passes.

Two foundation passes build the shared artifacts every source needs:

* ``fault_list`` — the stuck-at fault universe of the target netlist (or
  the caller's restricted universe);
* ``baseline`` — the faults already structurally untestable *before* any
  circuit manipulation (the "Original" row of Table I).

Four source passes migrate the legacy analyses; each claims a set of
identified faults that the pipeline attributes deterministically in the
paper's order (scan → debug control → debug observe → memory map), so the
per-source counts reproduce Table I exactly no matter how the passes were
scheduled:

* ``scan_analysis`` (§3.1) — direct structural prune of the scan circuitry;
* ``debug_control`` (§3.2.1) — debug control inputs tied to mission constants;
* ``debug_observe`` (§3.2.2) — debug observation buses left floating;
* ``memory_analysis`` (§3.3) — address bits frozen by the mission memory map.

After ``baseline`` the four sources only share read-only inputs, which is
what lets the parallel pipeline run them concurrently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.atpg.engine import AtpgEffort
from repro.core.debug_control import (compute_baseline_untestable,
                                      identify_debug_control_untestable)
from repro.core.debug_observe import identify_debug_observe_untestable
from repro.core.memory_analysis import identify_memory_map_untestable
from repro.core.results import FlowConfig
from repro.core.scan_analysis import identify_scan_untestable
from repro.faults.categories import OnlineUntestableSource
from repro.faults.faultlist import generate_fault_list
from repro.pipeline.base import PassResult
from repro.pipeline.context import PipelineContext
from repro.pipeline.registry import analysis_pass

if TYPE_CHECKING:  # pragma: no cover - repro.api imports this package
    from repro.api.options import RunOptions

#: Pass name -> key used in ``OnlineUntestableReport.runtimes`` (kept for
#: backward compatibility with the legacy flow's phase names).
LEGACY_RUNTIME_KEYS: Dict[str, str] = {
    "fault_list": "fault_list",
    "baseline": "baseline",
    "scan_analysis": "scan",
    "debug_control": "debug_control",
    "debug_observe": "debug_observe",
    "memory_analysis": "memory_map",
}

#: Pass name -> ``OnlineUntestableReport`` attribute holding its details.
REPORT_DETAIL_FIELDS: Dict[str, str] = {
    "scan_analysis": "scan_result",
    "debug_control": "debug_control_result",
    "debug_observe": "debug_observe_result",
    "memory_analysis": "memory_result",
}


def default_pass_names(config: Optional[FlowConfig] = None,
                       options: Optional["RunOptions"] = None) -> list:
    """The paper's pass selection for a :class:`FlowConfig`'s switches.

    The static-analysis pass joins at FULL effort with ``static_prune``
    on (unset ``options`` fields take their defaults).
    """
    from repro.api.options import DEFAULT_RUN_OPTIONS

    cfg = config or FlowConfig()
    run = DEFAULT_RUN_OPTIONS.merged_with(options)
    names = ["fault_list"]
    if run.effort is AtpgEffort.FULL and run.static_prune:
        names.append("static_analysis")
    names.append("baseline")
    if cfg.run_scan:
        names.append("scan_analysis")
    if cfg.run_debug_control:
        names.append("debug_control")
    if cfg.run_debug_observe:
        names.append("debug_observe")
    if cfg.run_memory_map:
        names.append("memory_analysis")
    return names


# --------------------------------------------------------------------- #
# foundation passes
# --------------------------------------------------------------------- #
@analysis_pass("fault_list", provides=("fault_universe", "fault_set"),
               cache_facets=("model", "faults"))
def fault_list_pass(ctx: PipelineContext) -> PassResult:
    """Enumerate the configured fault model's universe (or adopt the
    caller's)."""
    universe = (list(ctx.initial_faults) if ctx.initial_faults is not None
                else generate_fault_list(ctx.netlist,
                                         model=ctx.fault_model).faults())
    return PassResult(artifacts={
        "fault_universe": universe,
        "fault_set": set(universe),
    })


@analysis_pass("static_analysis", requires=("fault_universe",),
               provides=("static_analysis", "static_proofs"),
               cache_facets=("model",), persist=False)
def static_analysis_pass(ctx: PipelineContext) -> PassResult:
    """Build the per-signature static handle and prove what it can.

    The handle itself (SCOAP tables, learned implications, dominator
    chains) is memoised on the compiled netlist, so this pass mainly
    exists to surface the per-fault proof objects as a pipeline artifact
    and count them into the report.  Its cache key carries only the
    fault-model facet: the proofs read the netlist structure alone, never
    the ATPG effort or the memory map.
    """
    from repro.analysis import get_static_analysis

    static = get_static_analysis(ctx.netlist)
    proofs = static.prove_all(ctx.fault_universe)
    return PassResult(artifacts={"static_analysis": static,
                                 "static_proofs": proofs},
                      details=proofs)


@analysis_pass("baseline", requires=("fault_universe",),
               provides=("baseline_untestable",),
               cache_facets=("model", "effort", "faults", "static", "atpg"))
def baseline_pass(ctx: PipelineContext) -> PassResult:
    """Faults untestable before manipulation — Table I's "Original" row."""
    baseline = compute_baseline_untestable(
        ctx.netlist, ctx.fault_universe, **ctx.engine_options)
    return PassResult(artifacts={"baseline_untestable": baseline})


# --------------------------------------------------------------------- #
# source passes (paper §3.1–§3.3)
# --------------------------------------------------------------------- #
@analysis_pass("scan_analysis", source=OnlineUntestableSource.SCAN,
               requires=("fault_set",), provides=("scan_result",),
               cache_facets=("model",))
def scan_analysis_pass(ctx: PipelineContext) -> PassResult:
    """§3.1 — prune the scan-chain circuitry faults (no ATPG required).

    The identification itself only reads the netlist, but attribution of
    the identified faults needs the fault universe, so ``fault_set`` is a
    declared dependency — selecting this pass alone still pulls in
    ``fault_list`` and produces a meaningful report.  Because it reads the
    netlist alone, its cache key carries a single configuration facet —
    the fault model, which decides what faults the traced sites contribute
    — so every scenario variant sharing netlist and model replays it for
    free.
    """
    scan = identify_scan_untestable(ctx.netlist, model=ctx.fault_model)
    return PassResult(artifacts={"scan_result": scan},
                      identified=scan.untestable, details=scan)


@analysis_pass("debug_control", source=OnlineUntestableSource.DEBUG_CONTROL,
               requires=("fault_universe", "baseline_untestable"),
               provides=("debug_control_result",),
               cache_facets=("model", "effort", "faults", "static", "atpg"))
def debug_control_pass(ctx: PipelineContext) -> PassResult:
    """§3.2.1 — tie the debug control inputs to their mission constants."""
    ctrl = identify_debug_control_untestable(
        ctx.netlist, faults=ctx.fault_universe,
        baseline_untestable=ctx.baseline_untestable, **ctx.engine_options)
    return PassResult(artifacts={"debug_control_result": ctrl},
                      identified=ctrl.newly_untestable, details=ctrl)


@analysis_pass("debug_observe", source=OnlineUntestableSource.DEBUG_OBSERVE,
               requires=("fault_universe", "baseline_untestable"),
               provides=("debug_observe_result",),
               cache_facets=("model", "effort", "faults", "static", "atpg"))
def debug_observe_pass(ctx: PipelineContext) -> PassResult:
    """§3.2.2 — float the debug-only observation buses."""
    observe = identify_debug_observe_untestable(
        ctx.netlist, faults=ctx.fault_universe,
        baseline_untestable=ctx.baseline_untestable, **ctx.engine_options)
    return PassResult(artifacts={"debug_observe_result": observe},
                      identified=observe.newly_untestable, details=observe)


@analysis_pass("memory_analysis", source=OnlineUntestableSource.MEMORY_MAP,
               requires=("fault_universe", "baseline_untestable"),
               provides=("memory_result",),
               when=lambda ctx: ctx.memory_map is not None,
               cache_facets=("model", "effort", "ties", "memmap", "faults",
                             "static", "atpg"))
def memory_analysis_pass(ctx: PipelineContext) -> PassResult:
    """§3.3 — freeze the address bits the mission memory map never toggles."""
    memory = identify_memory_map_untestable(
        ctx.netlist, memory_map=ctx.memory_map, faults=ctx.fault_universe,
        baseline_untestable=ctx.baseline_untestable,
        tie_flop_outputs=ctx.config.tie_flop_outputs,
        tie_flop_inputs=ctx.config.tie_flop_inputs, **ctx.engine_options)
    return PassResult(artifacts={"memory_result": memory},
                      identified=memory.newly_untestable, details=memory)
