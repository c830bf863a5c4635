#!/usr/bin/env python3
"""Authoring a custom analysis pass for the repro pipeline.

The paper studies three sources of on-line functional untestability (scan,
debug, memory map), but the pipeline is open: any analysis that can name a
set of faults "never testable in the field" plugs in as a pass.  This
example adds a fourth source in the paper's spirit — the *reset tree*.
While the mission application runs, the external reset is never asserted
(``rst_n`` is held high), so we tie it to its mission constant on a clone
of the core, re-run the structural untestability engine and claim the
*newly* untestable faults for a custom ``"reset_tree"`` source.

A pass declares:

* ``name``      — registry key, selectable via ``Session.analyze(passes=[...])``;
* ``source``    — an :class:`OnlineUntestableSource` member or any custom
                  label; faults are attributed first to the paper's sources
                  (in the paper's fixed order), then to custom ones;
* ``requires`` / ``provides`` — artifact keys; the pipeline resolves the
  execution order (and concurrency) from these declarations.

Run with:  python examples/custom_pass.py
"""

import repro
from repro.atpg.engine import StructuralUntestabilityEngine
from repro.core.report import render_source_details
from repro.manipulation.tie import tie_port
from repro.pipeline import PassResult, analysis_pass
from repro.soc import SoCConfig, build_soc

MISSION_RESET_VALUE = 1  # rst_n is active-low and never asserted in-field


@analysis_pass("reset_tree", source="reset_tree",
               requires=("fault_universe", "baseline_untestable"),
               provides=("reset_tree_result",),
               when=lambda ctx: "rst_n" in ctx.netlist.ports)
def reset_tree_pass(ctx) -> PassResult:
    """Faults only testable while the external reset is asserted."""
    manipulated = ctx.netlist.clone(f"{ctx.netlist.name}_reset_tied")
    tie_port(manipulated, "rst_n", MISSION_RESET_VALUE,
             reason="reset never asserted in mission mode")
    engine = StructuralUntestabilityEngine(manipulated, effort=ctx.effort)
    untestable = set(engine.classify(ctx.fault_universe).untestable)
    newly = untestable - ctx.baseline_untestable
    return PassResult(artifacts={"reset_tree_result": untestable},
                      identified=newly)


def main() -> None:
    soc = build_soc(SoCConfig.tiny())

    # The default flow, plus our pass.  Dependencies (fault_list, baseline)
    # are pulled in automatically, and attribution keeps the paper's
    # sources first, so reset_tree only claims faults they left over.
    report = repro.Session().analyze(soc, passes=[
        "scan_analysis", "debug_control", "debug_observe",
        "memory_analysis", "reset_tree",
    ])

    print(report.to_table())
    print()
    print(render_source_details(report, max_faults_per_source=3))

    reset_summary = next(
        (s for s in report.sources if s.source == "reset_tree"), None)
    if reset_summary is not None:
        print()
        print(f"=> the reset tree contributes {reset_summary.count:,} "
              f"additional on-line untestable faults "
              f"(of {len(reset_summary.identified):,} identified; the rest "
              f"were already claimed by the paper's sources).")


if __name__ == "__main__":
    main()
