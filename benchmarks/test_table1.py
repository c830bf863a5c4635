"""Experiment ``table1`` — reproduction of Table I (§4).

The paper applies the identification flow to an industrial SoC with a 32-bit
embedded core (214,930 stuck-at faults) and reports, per source of on-line
functional untestability:

    Original        0      0%
    Scan       19,142    8.9%
    Debug   4,548+2,357  3.2%
    Memory      3,610    1.7%
    TOTAL      29,657   13.8%

This benchmark regenerates the same rows on the synthetic date13 core.  The
absolute counts depend on the netlist, so the assertions check the *shape*:
scan is the dominant source at several percent of the fault list, debug
contributes a low single-digit percentage split between control and
observation (control > observation), the memory map contributes a smaller
share, and the total lands in the low teens.
"""

from repro.api import Session
from repro.faults.categories import OnlineUntestableSource


def _percent(report, count):
    return 100.0 * count / report.total_faults


def test_table1_shape(date13_soc, date13_report, benchmark):
    report = benchmark.pedantic(
        lambda: Session().analyze(date13_soc),
        rounds=3, iterations=1, warmup_rounds=0)

    print()
    print(report.to_table())

    scan = report.source_count(OnlineUntestableSource.SCAN)
    ctrl = report.source_count(OnlineUntestableSource.DEBUG_CONTROL)
    observe = report.source_count(OnlineUntestableSource.DEBUG_OBSERVE)
    memory = report.source_count(OnlineUntestableSource.MEMORY_MAP)
    total = report.total_online_untestable

    # Row "Original": the reference fault list (paper reports 0 untestable).
    assert len(report.baseline_untestable) < 0.03 * report.total_faults

    # Row "Scan": the dominant source, around 9% of the fault list.
    assert scan == max(scan, ctrl + observe, memory)
    assert 5.0 < _percent(report, scan) < 14.0

    # Row "Debug": a few percent, control part larger than observation part.
    assert 1.0 < _percent(report, ctrl + observe) < 7.0
    assert ctrl > observe > 0

    # Row "Memory": smaller than debug+scan but clearly non-zero.
    assert 0.5 < _percent(report, memory) < 5.0

    # Row "TOTAL": low-teens percentage, consistent with the per-source sum.
    assert 8.0 < _percent(report, total) < 25.0
    assert total == scan + ctrl + observe + memory


def test_table1_fault_universe_scale(date13_soc):
    """The synthetic core's fault universe is in the same order of magnitude
    as the industrial core (tens of thousands of uncollapsed pin faults)."""
    from repro.faults.faultlist import generate_fault_list

    universe = generate_fault_list(date13_soc.cpu)
    assert 30_000 < len(universe) < 500_000
