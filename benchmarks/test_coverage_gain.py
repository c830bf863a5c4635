"""Experiment ``coverage_gain`` — the ~13% fault-coverage increase of §4.

The paper's practical motivation: once the on-line functionally untestable
faults are removed from the fault list, the stuck-at fault coverage of the
(already mature) SBST suite rises by roughly the pruned fraction — about 13 %
on the industrial SoC — which is what matters against the ISO 26262 targets.

This benchmark generates the SBST suite for the tiny core, runs it on the
gate-level netlist, grades the resulting functional patterns under mission
observability and compares the coverage computed on the full fault list with
the coverage on the pruned list.
"""

from repro.sbst.grading import FaultGrader
from repro.sbst.monitor import ToggleMonitor
from repro.sbst.program_gen import generate_sbst_suite


def test_coverage_gain_from_pruning(tiny_soc, tiny_report, benchmark):
    programs = generate_sbst_suite(tiny_soc.config.cpu)
    monitor = ToggleMonitor(tiny_soc.cpu)
    patterns = monitor.run_suite(programs)

    grader = FaultGrader(tiny_soc.cpu)
    comparison = benchmark.pedantic(
        lambda: grader.compare_with_pruning(patterns, tiny_report.online_untestable),
        rounds=3, iterations=1, warmup_rounds=0)

    pruned_fraction = comparison.pruned / comparison.total_faults
    print()
    print("Coverage gain from pruning on-line untestable faults (tiny core):")
    print(f"  SBST patterns graded      : {len(patterns)}")
    print(f"  coverage, full fault list : {comparison.coverage_before:.1%}")
    print(f"  pruned fraction           : {pruned_fraction:.1%}")
    print(f"  coverage, pruned list     : {comparison.coverage_after:.1%}")
    print(f"  coverage gain             : +{comparison.coverage_gain:.1%}")

    # The gain is positive and of the same order as the pruned fraction
    # (scaled by the achieved coverage), as in the paper.
    assert comparison.coverage_gain > 0.02
    assert comparison.coverage_after > comparison.coverage_before
    assert comparison.coverage_after <= 1.0
    expected_gain = comparison.coverage_before * pruned_fraction / (1 - pruned_fraction)
    assert abs(comparison.coverage_gain - expected_gain) < 0.10


def test_pruned_faults_mostly_undetected(tiny_soc, tiny_report):
    """Consistency: the coverage gain comes (almost entirely) from shrinking
    the denominator, not from removing detected faults.  The grading model is
    a single-time-frame approximation that observes flip-flop inputs in
    place of multi-cycle propagation to memory, so it may count an effect
    the mission never stores, and a small leakage is tolerated (README,
    "SBST fault grading"; ROADMAP item 3 measures it); the bulk of the
    pruned population must be undetected by the mission patterns."""
    programs = generate_sbst_suite(tiny_soc.config.cpu)
    patterns = ToggleMonitor(tiny_soc.cpu).run_suite(programs)
    grader = FaultGrader(tiny_soc.cpu)
    comparison = grader.compare_with_pruning(patterns, tiny_report.online_untestable)
    detected_and_pruned = comparison.detected - comparison.detected_after_pruning
    assert detected_and_pruned <= 0.10 * comparison.pruned
