"""Unit tests for the PODEM test generator."""

from repro.atpg.podem import Podem, PodemStatus
from repro.faults.fault import SA0, SA1, StuckAtFault
from repro.faults.faultlist import generate_fault_list
from repro.netlist.builder import NetlistBuilder
from repro.netlist.cells import LOGIC_1
from repro.simulation.fault_sim import FaultSimulator

from tests.conftest import all_input_patterns


def redundant_circuit():
    """y = (a & b) | (a & ~b) | a  — the last OR input makes part of the logic
    redundant: the fault "extra AND output s-a-0" cannot be observed."""
    b = NetlistBuilder("redundant")
    a = b.add_input("a")
    bb = b.add_input("b")
    y = b.add_output("y")
    nb = b.inv(bb)
    t1 = b.gate("AND2", a, bb, name="u_t1")
    t2 = b.gate("AND2", a, nb, name="u_t2")
    stage = b.gate("OR2", t1, t2, name="u_or1")
    b.gate("OR2", stage, a, output=y, name="u_or2")
    return b.build()


class TestPodemDetection:
    def test_generates_tests_for_irredundant_circuit(self, and_or_circuit):
        podem = Podem(and_or_circuit)
        sim = FaultSimulator(and_or_circuit)
        faults = generate_fault_list(and_or_circuit, include_ports=False).faults()
        for fault in faults:
            result = podem.generate(fault)
            assert result.status is PodemStatus.DETECTED, f"{fault} not detected"
            # The produced pattern must actually detect the fault.
            pattern = {p: result.pattern.get(p, 0) for p in ("a", "b", "c")}
            assert sim.detects(fault, pattern), f"pattern fails for {fault}"

    def test_detects_fault_behind_reconvergence(self):
        netlist = redundant_circuit()
        podem = Podem(netlist)
        # a s-a-0 is clearly detectable (set a=1, observe y).
        result = podem.generate(StuckAtFault("a", SA0))
        assert result.status is PodemStatus.DETECTED

    def test_pattern_uses_controllable_points_only(self, and_or_circuit):
        podem = Podem(and_or_circuit)
        result = podem.generate(StuckAtFault("or2_0/A", SA1))
        assert result.status is PodemStatus.DETECTED
        assert set(result.pattern) <= {"a", "b", "c"}

    def test_ff_outputs_are_controllable(self):
        b = NetlistBuilder("m")
        clk = b.add_input("clk")
        d = b.add_input("d")
        y = b.add_output("y")
        q = b.dff(d, clk, name="ff")
        b.inv(q, output=y)
        podem = Podem(b.build())
        result = podem.generate(StuckAtFault("inv_0/A", SA0))
        assert result.status is PodemStatus.DETECTED
        assert q in result.pattern


class TestPodemUntestable:
    def test_redundant_fault_proven_untestable(self):
        netlist = redundant_circuit()
        podem = Podem(netlist, backtrack_limit=1000)
        # With y = (a&b) | (a&~b) | a == a, the first-stage OR output s-a-1
        # can never be distinguished (the direct "a" input dominates when the
        # stage could be excited): u_or1/Y s-a-1 requires a=0 to excite, but
        # then the fault effect is masked by... a=0 on the other OR leg makes
        # it propagate -- instead check the classic undetectable fault:
        # u_t1/Y stuck-at-0 is detectable; u_or1/Y s-a-0 requires the stage
        # to be 1 (a=1) but then the parallel direct "a" leg masks it.
        result = podem.generate(StuckAtFault("u_or1/Y", SA0))
        assert result.status is PodemStatus.UNTESTABLE

    def test_tied_fault_site_is_untestable(self, and_or_circuit):
        and_or_circuit.net("c").tied = LOGIC_1
        podem = Podem(and_or_circuit)
        result = podem.generate(StuckAtFault("c", SA1))
        assert result.status is PodemStatus.UNTESTABLE

    def test_blocked_propagation_untestable(self, and_or_circuit):
        # c tied to 1 controls the OR: faults on the AND cone cannot propagate.
        and_or_circuit.net("c").tied = LOGIC_1
        podem = Podem(and_or_circuit)
        result = podem.generate(StuckAtFault("and2_0/A", SA0))
        assert result.status is PodemStatus.UNTESTABLE

    def test_unconnected_site_untestable(self):
        b = NetlistBuilder("m")
        a = b.add_input("a")
        y = b.add_output("y")
        b.cell("HA", {"A": a, "B": a, "S": y}, name="u_ha")  # CO unconnected
        podem = Podem(b.build())
        result = podem.generate(StuckAtFault("u_ha/CO", SA1))
        assert result.status is PodemStatus.UNTESTABLE

    def test_unobservable_output_makes_cone_untestable(self, and_or_circuit):
        and_or_circuit.unobservable_ports.update({"y", "z"})
        podem = Podem(and_or_circuit)
        result = podem.generate(StuckAtFault("and2_0/A", SA0))
        assert result.status is PodemStatus.UNTESTABLE


class TestPodemAgainstExhaustiveSimulation:
    def test_podem_verdicts_match_exhaustive_fault_simulation(self):
        """For a small reconvergent circuit, PODEM's DETECTED/UNTESTABLE verdicts
        must agree with exhaustive fault simulation over all input patterns."""
        netlist = redundant_circuit()
        podem = Podem(netlist, backtrack_limit=5000)
        sim = FaultSimulator(netlist)
        patterns = list(all_input_patterns(["a", "b"]))
        faults = generate_fault_list(netlist, include_ports=False).faults()
        for fault in faults:
            detectable = any(sim.detects(fault, p) for p in patterns)
            result = podem.generate(fault)
            if detectable:
                assert result.status is PodemStatus.DETECTED, fault
            else:
                assert result.status is PodemStatus.UNTESTABLE, fault
