#!/usr/bin/env python3
"""SBST workflow: quiescent-signal discovery and the coverage gain from pruning.

Reproduces the §4 workflow around the identification flow:

1. generate a software-based self-test (SBST) suite for the core and run it
   on the gate-level netlist, collecting toggle activity and the functional
   patterns it applies;
2. use the activity data to shortlist the suspect (never-toggling) inputs —
   this is how the paper's authors found the 17 debug signals on the
   industrial SoC;
3. fault-grade the functional patterns with mission observability and compare
   the stuck-at fault coverage before and after pruning the on-line
   functionally untestable faults — the pruning is what lifts the reported
   coverage towards the ISO 26262 targets.

Run with:  python examples/sbst_coverage_gain.py
"""

from repro.api import Session
from repro.debug.interface import find_quiescent_inputs
from repro.sbst import FaultGrader, ToggleMonitor, generate_sbst_suite
from repro.soc import SoCConfig, build_soc


def main() -> None:
    soc = build_soc(SoCConfig.tiny())
    config = soc.config.cpu

    programs = generate_sbst_suite(config)
    print("Generated SBST suite:")
    for program in programs:
        print(f"  {program.name:16s} {program.length:4d} instructions")
    print()

    monitor = ToggleMonitor(soc.cpu)
    patterns = monitor.run_suite(programs)
    print(f"Executed the suite on the gate-level core: "
          f"{len(patterns)} functional patterns captured")

    quiescent = find_quiescent_inputs(soc.cpu, monitor.toggle_counts)
    print(f"Input pins that never toggled while the suite ran "
          f"({len(quiescent)} suspects):")
    for port in sorted(quiescent):
        print(f"  {port}")
    annotated = set(soc.debug_interface.control_inputs)
    print(f"  -> {len(annotated & set(quiescent))} of the "
          f"{len(annotated)} annotated debug control pins were recovered "
          f"by activity analysis alone")
    print()

    report = Session().analyze(soc)
    print(report.to_table())
    print()

    grader = FaultGrader(soc.cpu)
    comparison = grader.compare_with_pruning(patterns, report.online_untestable)
    print("Fault grading of the SBST suite (mission observability):")
    print(f"  detected faults              : {comparison.detected:,}")
    print(f"  fault-list size              : {comparison.total_faults:,}")
    print(f"  coverage (full fault list)   : {comparison.coverage_before:.1%}")
    print(f"  on-line untestable pruned    : {comparison.pruned:,}")
    print(f"  coverage (pruned fault list) : {comparison.coverage_after:.1%}")
    print(f"  => coverage gain             : +{comparison.coverage_gain:.1%}")


if __name__ == "__main__":
    main()
