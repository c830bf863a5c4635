"""Experiment ``fig2`` — the mux-scan flip-flop analysis of Fig. 2.

Fig. 2 annotates a mux-scan cell with the stuck-at faults related to the scan
behaviour and argues that, with the scan enable held at its functional value
in the field:

* SI stuck-at-0 and stuck-at-1 are on-line functionally untestable,
* SE stuck-at-functional-value (stuck-at-0 for an active-high SE) is
  untestable,
* SE stuck-at-1 — the fault that would wrongly engage the scan path — must be
  kept in the fault list,
* the functional data path (FI/FO) keeps all its faults.

This benchmark regenerates exactly that classification from a single scan
cell, both by direct pruning (the scan analysis) and by the structural
engine on the SE-tied circuit.
"""

from repro.atpg.engine import StructuralUntestabilityEngine
from repro.core.scan_analysis import identify_scan_untestable
from repro.faults.fault import SA0, SA1, StuckAtFault
from repro.faults.faultlist import generate_fault_list
from repro.netlist.builder import NetlistBuilder


def build_fig2_cell():
    b = NetlistBuilder("fig2_scan_cell")
    b.add_input("fi")
    b.add_input("si")
    b.add_input("se")
    b.add_input("clk")
    fo = b.add_output("fo")
    b.cell("SDFF", {"D": "fi", "SI": "si", "SE": "se", "CK": "clk", "Q": fo},
           name="u_sdff")
    return b.build()


def test_fig2_scan_cell_faults(benchmark):
    netlist = build_fig2_cell()
    result = benchmark.pedantic(
        lambda: identify_scan_untestable(netlist, scan_in_ports=["si"]),
        rounds=5, iterations=1, warmup_rounds=0)

    pruned = result.untestable
    print()
    print("Fig. 2 — faults pruned on the mux-scan cell:")
    for fault in sorted(pruned):
        print(f"  {fault}")

    # The scan-behaviour faults of Fig. 2.
    assert StuckAtFault("u_sdff/SI", SA0) in pruned
    assert StuckAtFault("u_sdff/SI", SA1) in pruned
    assert StuckAtFault("u_sdff/SE", SA0) in pruned
    # The dangerous fault (SE stuck in scan mode) is kept.
    assert StuckAtFault("u_sdff/SE", SA1) not in pruned
    # The functional path keeps all of its faults.
    assert StuckAtFault("u_sdff/D", SA0) not in pruned
    assert StuckAtFault("u_sdff/D", SA1) not in pruned
    assert StuckAtFault("u_sdff/Q", SA0) not in pruned
    assert StuckAtFault("u_sdff/Q", SA1) not in pruned


def test_fig2_engine_agreement():
    """The paper's TetraMax experiment: tie SE to the functional value and the
    engine reports the same faults as untestable-due-to-tied-value."""
    netlist = build_fig2_cell()
    netlist.net("se").tied = 0
    engine = StructuralUntestabilityEngine(netlist)
    report = engine.classify(generate_fault_list(netlist).faults())
    untestable = set(report.untestable)

    assert StuckAtFault("u_sdff/SI", SA0) in untestable
    assert StuckAtFault("u_sdff/SI", SA1) in untestable
    assert StuckAtFault("u_sdff/SE", SA0) in untestable
    assert StuckAtFault("u_sdff/SE", SA1) not in untestable
    assert StuckAtFault("u_sdff/D", SA1) not in untestable
