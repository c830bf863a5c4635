"""Unit tests for the tied-value untestability analysis and the engine.

These tests reproduce, at cell level, the three figures of the paper that
motivate the method: the mux-scan cell (Fig. 2), the debug flip-flop
(Fig. 4) and the constant-value DFF (Fig. 5/6).
"""

from repro.atpg.engine import AtpgEffort, StructuralUntestabilityEngine
from repro.atpg.tie_analysis import TieAnalysis
from repro.faults.categories import FaultClass
from repro.faults.fault import SA0, SA1, StuckAtFault
from repro.faults.faultlist import generate_fault_list
from repro.netlist.cells import LOGIC_0, LOGIC_1


class TestTieAnalysisBasics:
    def test_no_ties_no_untestable(self, and_or_circuit):
        analysis = TieAnalysis(and_or_circuit)
        faults = generate_fault_list(and_or_circuit).faults()
        result = analysis.run(faults)
        assert result.untestable == set()

    def test_unexcitable_fault_is_ut(self, and_or_circuit):
        and_or_circuit.net("c").tied = LOGIC_1
        analysis = TieAnalysis(and_or_circuit)
        assert analysis.classify_fault(StuckAtFault("c", SA1)) is FaultClass.UT
        assert analysis.classify_fault(StuckAtFault("inv_0/A", SA1)) is FaultClass.UT
        # The opposite-polarity fault is excitable but blocked downstream of
        # the inverter?  No: z is observable, so it is testable.
        assert analysis.classify_fault(StuckAtFault("inv_0/A", SA0)) is None

    def test_blocked_fault_is_ub(self, and_or_circuit):
        and_or_circuit.net("c").tied = LOGIC_1
        analysis = TieAnalysis(and_or_circuit)
        # Faults in the AND cone can be excited but never pass the OR gate.
        assert analysis.classify_fault(StuckAtFault("and2_0/A", SA0)) is FaultClass.UB
        assert analysis.classify_fault(StuckAtFault("and2_0/Y", SA1)) is FaultClass.UB

    def test_unobservable_fault_is_uo(self, and_or_circuit):
        and_or_circuit.unobservable_ports.add("z")
        analysis = TieAnalysis(and_or_circuit)
        # The inverter only feeds the floated port z.
        assert analysis.classify_fault(StuckAtFault("inv_0/Y", SA0)) is FaultClass.UO
        assert analysis.classify_fault(StuckAtFault("z", SA1)) is FaultClass.UO
        # The c input still reaches y through the OR gate.
        assert analysis.classify_fault(StuckAtFault("c", SA0)) is None

    def test_soundness_against_podem(self, and_or_circuit):
        """Everything the tie analysis calls untestable must be proven
        untestable by exhaustive PODEM on the same manipulated circuit."""
        from repro.atpg.podem import Podem, PodemStatus

        and_or_circuit.net("c").tied = LOGIC_1
        and_or_circuit.unobservable_ports.add("z")
        analysis = TieAnalysis(and_or_circuit)
        faults = generate_fault_list(and_or_circuit).faults()
        result = analysis.run(faults)
        podem = Podem(and_or_circuit, backtrack_limit=10_000)
        for fault in result.untestable:
            assert podem.generate(fault).status is PodemStatus.UNTESTABLE, fault


class TestFig2ScanCell:
    """Paper Fig. 2: mux-scan cell with SE held at the functional value."""

    def test_scan_faults_untestable_when_se_tied_low(self, scan_cell_circuit):
        scan_cell_circuit.net("se").tied = LOGIC_0
        analysis = TieAnalysis(scan_cell_circuit)
        # SI can never be observed (capture mux selects D).
        assert analysis.classify_fault(StuckAtFault("u_sdff/SI", SA0)) is not None
        assert analysis.classify_fault(StuckAtFault("u_sdff/SI", SA1)) is not None
        # SE stuck at the functional value 0 is unexcitable.
        assert analysis.classify_fault(StuckAtFault("u_sdff/SE", SA0)) is FaultClass.UT
        # SE stuck-at-1 would wrongly select SI: it must remain testable.
        assert analysis.classify_fault(StuckAtFault("u_sdff/SE", SA1)) is None
        # The functional data path stays fully testable.
        assert analysis.classify_fault(StuckAtFault("u_sdff/D", SA0)) is None
        assert analysis.classify_fault(StuckAtFault("u_sdff/D", SA1)) is None


class TestFig4DebugCell:
    """Paper Fig. 4: debug flip-flop with DE/DI tied and DO floating."""

    def test_debug_control_faults(self, debug_cell_circuit):
        debug_cell_circuit.net("de").tied = LOGIC_0
        debug_cell_circuit.net("di").tied = LOGIC_0
        analysis = TieAnalysis(debug_cell_circuit)
        assert analysis.classify_fault(StuckAtFault("u_dbgff/DE", SA0)) is FaultClass.UT
        assert analysis.classify_fault(StuckAtFault("u_dbgff/DI", SA0)) is FaultClass.UT
        assert analysis.classify_fault(StuckAtFault("u_dbgff/DI", SA1)) is not None
        # DE stuck-at-1 erroneously enables the debug path: still testable.
        assert analysis.classify_fault(StuckAtFault("u_dbgff/DE", SA1)) is None
        assert analysis.classify_fault(StuckAtFault("u_dbgff/D", SA1)) is None

    def test_debug_observation_faults(self, debug_cell_circuit):
        debug_cell_circuit.unobservable_ports.add("do")
        analysis = TieAnalysis(debug_cell_circuit)
        # The DO buffer only feeds the floating debug output.
        assert analysis.classify_fault(StuckAtFault("u_do_buf/A", SA0)) is FaultClass.UO
        assert analysis.classify_fault(StuckAtFault("u_do_buf/Y", SA1)) is FaultClass.UO
        assert analysis.classify_fault(StuckAtFault("do", SA0)) is FaultClass.UO
        # The flip-flop itself is still observable through fo.
        assert analysis.classify_fault(StuckAtFault("u_dbgff/D", SA0)) is None


class TestFig5ConstantDff:
    """Paper Fig. 5/6: a DFF holding a frozen address bit."""

    def test_only_stuck_at_one_faults_remain(self, constant_dff_circuit):
        # Freeze the register: D and Q tied to 0 (paper §3.3 step 4a).
        q_net = constant_dff_circuit.instance("u_addr_ff").pin("Q").net.name
        constant_dff_circuit.net("d").tied = LOGIC_0
        constant_dff_circuit.net(q_net).tied = LOGIC_0
        analysis = TieAnalysis(constant_dff_circuit)

        assert analysis.classify_fault(StuckAtFault("u_addr_ff/D", SA0)) is FaultClass.UT
        assert analysis.classify_fault(StuckAtFault("u_addr_ff/Q", SA0)) is FaultClass.UT
        # The stuck-at-1 faults remain testable (they would corrupt the system).
        assert analysis.classify_fault(StuckAtFault("u_addr_ff/D", SA1)) is None
        assert analysis.classify_fault(StuckAtFault("u_addr_ff/Q", SA1)) is None

    def test_tie_propagates_into_downstream_logic(self, constant_dff_circuit):
        """Fig. 6: tieing the register output exposes untestable faults in the
        connected combinational logic (the AND gate fed by the register)."""
        q_net = constant_dff_circuit.instance("u_addr_ff").pin("Q").net.name
        constant_dff_circuit.net(q_net).tied = LOGIC_0
        analysis = TieAnalysis(constant_dff_circuit)
        and_gate = [i for i in constant_dff_circuit.instances.values()
                    if i.cell.name == "AND2"][0]
        # The AND input fed by the frozen register: s-a-0 unexcitable.
        assert analysis.classify_fault(
            StuckAtFault(f"{and_gate.name}/A", SA0)) is FaultClass.UT
        # The other AND input is blocked by the controlling constant 0.
        assert analysis.classify_fault(
            StuckAtFault(f"{and_gate.name}/B", SA0)) is FaultClass.UB
        assert analysis.classify_fault(
            StuckAtFault(f"{and_gate.name}/B", SA1)) is FaultClass.UB


class TestEngine:
    def test_tie_effort_reports_only_untestable(self, and_or_circuit):
        and_or_circuit.net("c").tied = LOGIC_1
        engine = StructuralUntestabilityEngine(and_or_circuit, effort=AtpgEffort.TIE)
        faults = generate_fault_list(and_or_circuit).faults()
        report = engine.classify(faults)
        assert report.untestable
        assert not report.detected

    def test_random_effort_marks_detectable_faults(self, and_or_circuit):
        engine = StructuralUntestabilityEngine(and_or_circuit,
                                               effort=AtpgEffort.RANDOM,
                                               random_patterns=64)
        faults = generate_fault_list(and_or_circuit, include_ports=False).faults()
        report = engine.classify(faults)
        assert len(report.detected) == len(faults)

    def test_full_effort_settles_every_fault(self, and_or_circuit):
        and_or_circuit.net("c").tied = LOGIC_1
        engine = StructuralUntestabilityEngine(and_or_circuit, effort=AtpgEffort.FULL)
        faults = generate_fault_list(and_or_circuit).faults()
        report = engine.classify(faults)
        classified = set(report.classifications)
        assert classified == set(faults)
        assert FaultClass.NC not in set(report.classifications.values())
        counts = report.counts()
        assert counts.get("AU", 0) == 0  # small circuit: nothing abandoned

    def test_full_effort_agrees_with_tie_effort_on_untestable(self, and_or_circuit):
        and_or_circuit.net("c").tied = LOGIC_1
        faults = generate_fault_list(and_or_circuit).faults()
        tie_report = StructuralUntestabilityEngine(
            and_or_circuit, effort=AtpgEffort.TIE).classify(faults)
        full_report = StructuralUntestabilityEngine(
            and_or_circuit, effort=AtpgEffort.FULL).classify(faults)
        assert set(tie_report.untestable) <= set(full_report.untestable)

    def test_runtime_and_phase_bookkeeping(self, and_or_circuit):
        engine = StructuralUntestabilityEngine(and_or_circuit, effort=AtpgEffort.FULL,
                                               random_patterns=0)
        report = engine.classify(generate_fault_list(and_or_circuit).faults())
        assert report.runtime_seconds > 0
        assert "tie" in report.phase_runtimes
        # With the random phase disabled every detectable fault must be
        # settled by PODEM.
        assert "podem" in report.phase_runtimes
        assert report.detected
