"""Unit tests for constant propagation and the implication engine."""

from repro.atpg.implication import ImplicationEngine, implied_constants
from repro.netlist.builder import NetlistBuilder
from repro.netlist.cells import LOGIC_0, LOGIC_1


class TestImpliedConstants:
    def test_no_ties_means_only_structural_constants(self, and_or_circuit):
        constants = implied_constants(and_or_circuit)
        assert constants == {}

    def test_tie_propagates_through_or(self, and_or_circuit):
        and_or_circuit.net("c").tied = LOGIC_1
        constants = implied_constants(and_or_circuit)
        assert constants["c"] == LOGIC_1
        assert constants["y"] == LOGIC_1        # OR with a controlling 1
        assert constants["z"] == LOGIC_0        # inverter of c
        and_net = and_or_circuit.instance("and2_0").pin("Y").net.name
        assert and_net not in constants         # still depends on a, b

    def test_tie_zero_does_not_control_or(self, and_or_circuit):
        and_or_circuit.net("c").tied = LOGIC_0
        constants = implied_constants(and_or_circuit)
        assert constants["c"] == LOGIC_0
        assert "y" not in constants

    def test_extra_constants_parameter(self, and_or_circuit):
        constants = implied_constants(and_or_circuit, extra_constants={"a": LOGIC_0})
        and_net = and_or_circuit.instance("and2_0").pin("Y").net.name
        assert constants[and_net] == LOGIC_0

    def test_tie_cells_produce_constants(self):
        b = NetlistBuilder("m")
        y = b.add_output("y")
        one = b.tie1()
        a = b.add_input("a")
        b.gate("AND2", one, a, output=y)
        constants = implied_constants(b.build())
        assert constants[one] == LOGIC_1
        assert "y" not in constants


class TestImplicationEngine:
    def test_can_take_respects_constants(self, and_or_circuit):
        and_or_circuit.net("c").tied = LOGIC_1
        engine = ImplicationEngine(and_or_circuit)
        assert engine.constant_of("y") == LOGIC_1
        assert engine.can_take("y", LOGIC_1)
        assert not engine.can_take("y", LOGIC_0)
        assert engine.can_take("a", LOGIC_0) and engine.can_take("a", LOGIC_1)

    def test_propagation_blocked_by_controlling_side_input(self, and_or_circuit):
        # Tie c to 1: the OR gate's other input (the AND output) is blocked.
        and_or_circuit.net("c").tied = LOGIC_1
        engine = ImplicationEngine(and_or_circuit)
        or_gate = and_or_circuit.instance("or2_0")
        assert engine.propagation_blocked(or_gate, "A")
        # The inverter is never blocked.
        inv = and_or_circuit.instance("inv_0")
        assert not engine.propagation_blocked(inv, "A")

    def test_and_gate_blocking(self):
        b = NetlistBuilder("m")
        a = b.add_input("a")
        c = b.add_input("b")
        y = b.add_output("y")
        b.gate("AND2", a, c, output=y)
        netlist = b.build()
        netlist.net("b").tied = LOGIC_0
        engine = ImplicationEngine(netlist)
        assert engine.propagation_blocked(netlist.instance("and2_0"), "A")
        netlist.net("b").tied = LOGIC_1
        engine = ImplicationEngine(netlist)
        assert not engine.propagation_blocked(netlist.instance("and2_0"), "A")

    def test_mux_blocking(self):
        b = NetlistBuilder("m")
        s = b.add_input("s")
        d0 = b.add_input("d0")
        d1 = b.add_input("d1")
        y = b.add_output("y")
        b.mux(s, d0, d1, output=y)
        netlist = b.build()
        netlist.net("s").tied = LOGIC_0
        engine = ImplicationEngine(netlist)
        mux = netlist.instance("mux2_0")
        assert engine.propagation_blocked(mux, "D1")
        assert not engine.propagation_blocked(mux, "D0")

    def test_mux_select_blocked_when_data_equal_constants(self):
        b = NetlistBuilder("m")
        s = b.add_input("s")
        y = b.add_output("y")
        zero_a = b.tie0()
        zero_b = b.tie0()
        b.mux(s, zero_a, zero_b, output=y)
        engine = ImplicationEngine(b.build())
        mux = [i for i in engine.netlist.instances.values() if i.cell.name == "MUX2"][0]
        assert engine.propagation_blocked(mux, "S")

    def test_scan_cell_blocking(self, scan_cell_circuit):
        # SE tied to the functional value (0) blocks the SI leg.
        scan_cell_circuit.net("se").tied = LOGIC_0
        engine = ImplicationEngine(scan_cell_circuit)
        cell = scan_cell_circuit.instance("u_sdff")
        assert engine.propagation_blocked(cell, "SI")
        assert not engine.propagation_blocked(cell, "D")
        # SE tied to 1 blocks the functional leg instead.
        scan_cell_circuit.net("se").tied = LOGIC_1
        engine = ImplicationEngine(scan_cell_circuit)
        assert engine.propagation_blocked(cell, "D")
        assert not engine.propagation_blocked(cell, "SI")

    def test_debug_cell_blocking(self, debug_cell_circuit):
        debug_cell_circuit.net("de").tied = LOGIC_0
        engine = ImplicationEngine(debug_cell_circuit)
        cell = debug_cell_circuit.instance("u_dbgff")
        assert engine.propagation_blocked(cell, "DI")
        assert not engine.propagation_blocked(cell, "D")

    def test_reset_active_blocks_data(self, constant_dff_circuit):
        constant_dff_circuit.net("rst_n").tied = LOGIC_0
        engine = ImplicationEngine(constant_dff_circuit)
        ff = constant_dff_circuit.instance("u_addr_ff")
        assert engine.propagation_blocked(ff, "D")
