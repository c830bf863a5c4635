"""Unit tests for the mission constants and the blocking rule of the
combinational view."""

import itertools

from hypothesis import HealthCheck, given, settings

from repro.atpg.view import _pin_blocked, get_view
from repro.netlist.builder import NetlistBuilder
from repro.netlist.cells import LOGIC_0, LOGIC_1, LOGIC_X, standard_library

from tests.legacy_sim import legacy_mission_constants
from tests.test_word_kernel import kernel_circuits


def _constants(netlist):
    """Every net with a definite mission constant, by name."""
    view = get_view(netlist)
    names = view.compiled.net_names
    return {names[nid]: value for nid, value in enumerate(view.base)
            if value != LOGIC_X}


def _blocked(netlist, instance, port, untrusted=None):
    view = get_view(netlist)
    kind, index, pos, _ = view.compiled.pin_ref(f"{instance}/{port}")
    return view.blocked(kind, index, pos, untrusted)


class TestImpliedConstants:
    def test_no_ties_means_only_structural_constants(self, and_or_circuit):
        assert _constants(and_or_circuit) == {}

    def test_tie_propagates_through_or(self, and_or_circuit):
        and_or_circuit.net("c").tied = LOGIC_1
        constants = _constants(and_or_circuit)
        assert constants["c"] == LOGIC_1
        assert constants["y"] == LOGIC_1        # OR with a controlling 1
        assert constants["z"] == LOGIC_0        # inverter of c
        and_net = and_or_circuit.instance("and2_0").pin("Y").net.name
        assert and_net not in constants         # still depends on a, b

    def test_tie_zero_does_not_control_or(self, and_or_circuit):
        and_or_circuit.net("c").tied = LOGIC_0
        constants = _constants(and_or_circuit)
        assert constants["c"] == LOGIC_0
        assert "y" not in constants

    def test_tie_cells_produce_constants(self):
        b = NetlistBuilder("m")
        y = b.add_output("y")
        one = b.tie1()
        a = b.add_input("a")
        b.gate("AND2", one, a, output=y)
        constants = _constants(b.build())
        assert constants[one] == LOGIC_1
        assert "y" not in constants

    def test_tied_reset_freezes_the_flop(self, constant_dff_circuit):
        """The fixpoint runs through the flip-flop's next state: an active
        reset fixes its output, and the constant reaches the AND gate."""
        constant_dff_circuit.net("rst_n").tied = LOGIC_0
        view = get_view(constant_dff_circuit)
        q = view.compiled.net_id[
            constant_dff_circuit.instance("u_addr_ff").pin("Q").net.name]
        assert view.fixed_ids == {q: LOGIC_0}
        assert q not in view.controllable_ids
        assert _constants(constant_dff_circuit)["y"] == LOGIC_0

    def test_released_reset_fixes_nothing(self, constant_dff_circuit):
        constant_dff_circuit.net("rst_n").tied = LOGIC_1
        assert not get_view(constant_dff_circuit).fixed_ids

    def test_fixpoint_runs_through_a_flop_chain(self):
        """A frozen flop freezes the next one through a gate: the second
        constant needs a second pass."""
        b = NetlistBuilder("chain")
        clk, rst_n, d, x = (b.add_input(name)
                            for name in ("clk", "rst_n", "d", "x"))
        q0 = b.dff(d, clk, reset_n=rst_n, name="ff0")
        q1 = b.dff(b.gate("AND2", q0, x), clk, name="ff1")
        b.buf(b.gate("OR2", q1, x), output=b.add_output("y"))
        netlist = b.build()
        netlist.net("rst_n").tied = LOGIC_0
        view = get_view(netlist)
        names = view.compiled.net_names
        assert {names[nid]: value for nid, value in view.fixed_ids.items()} \
            == {q0: LOGIC_0, q1: LOGIC_0}
        assert _constants(netlist) == legacy_mission_constants(netlist)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kernel_circuits())
def test_fixpoint_matches_the_name_keyed_iteration(netlist):
    assert _constants(netlist) == legacy_mission_constants(netlist)


class TestBlockingRule:
    def test_constant_respects_ties(self, and_or_circuit):
        and_or_circuit.net("c").tied = LOGIC_1
        view = get_view(and_or_circuit)
        net_id = view.compiled.net_id
        assert view.constant(net_id["y"]) == LOGIC_1
        assert view.constant(net_id["a"]) is None

    def test_propagation_blocked_by_controlling_side_input(self, and_or_circuit):
        # Tie c to 1: the OR gate's other input (the AND output) is blocked.
        and_or_circuit.net("c").tied = LOGIC_1
        assert _blocked(and_or_circuit, "or2_0", "A")
        # The inverter is never blocked.
        assert not _blocked(and_or_circuit, "inv_0", "A")

    def test_untrusted_side_constants_do_not_block(self, and_or_circuit):
        and_or_circuit.net("c").tied = LOGIC_1
        c = get_view(and_or_circuit).compiled.net_id["c"]
        assert not _blocked(and_or_circuit, "or2_0", "A", untrusted={c})

    def test_and_gate_blocking(self):
        b = NetlistBuilder("m")
        a = b.add_input("a")
        c = b.add_input("b")
        y = b.add_output("y")
        b.gate("AND2", a, c, output=y)
        netlist = b.build()
        netlist.net("b").tied = LOGIC_0
        assert _blocked(netlist, "and2_0", "A")
        netlist.net("b").tied = LOGIC_1
        assert not _blocked(netlist, "and2_0", "A")

    def test_mux_blocking(self):
        b = NetlistBuilder("m")
        s = b.add_input("s")
        d0 = b.add_input("d0")
        d1 = b.add_input("d1")
        y = b.add_output("y")
        b.mux(s, d0, d1, output=y)
        netlist = b.build()
        netlist.net("s").tied = LOGIC_0
        assert _blocked(netlist, "mux2_0", "D1")
        assert not _blocked(netlist, "mux2_0", "D0")

    def test_mux_select_blocked_when_data_equal_constants(self):
        b = NetlistBuilder("m")
        s = b.add_input("s")
        y = b.add_output("y")
        zero_a = b.tie0()
        zero_b = b.tie0()
        b.mux(s, zero_a, zero_b, output=y)
        netlist = b.build()
        mux = [i for i in netlist.instances.values() if i.cell.name == "MUX2"][0]
        assert _blocked(netlist, mux.name, "S")

    def test_scan_cell_blocking(self, scan_cell_circuit):
        # SE tied to the functional value (0) blocks the SI leg.
        scan_cell_circuit.net("se").tied = LOGIC_0
        assert _blocked(scan_cell_circuit, "u_sdff", "SI")
        assert not _blocked(scan_cell_circuit, "u_sdff", "D")
        # SE tied to 1 blocks the functional leg instead.
        scan_cell_circuit.net("se").tied = LOGIC_1
        assert _blocked(scan_cell_circuit, "u_sdff", "D")
        assert not _blocked(scan_cell_circuit, "u_sdff", "SI")

    def test_debug_cell_blocking(self, debug_cell_circuit):
        debug_cell_circuit.net("de").tied = LOGIC_0
        assert _blocked(debug_cell_circuit, "u_dbgff", "DI")
        assert not _blocked(debug_cell_circuit, "u_dbgff", "D")

    def test_reset_active_blocks_data(self, constant_dff_circuit):
        constant_dff_circuit.net("rst_n").tied = LOGIC_0
        assert _blocked(constant_dff_circuit, "u_addr_ff", "D")
        # An effect on the clock or reset pin itself still counts as observed.
        assert not _blocked(constant_dff_circuit, "u_addr_ff", "RN")

    def test_combinational_rule_matches_the_scalar_form(self):
        """Every combinational cell, input pin and 0/1/X side assignment:
        the word-form rule agrees with enumerating the scalar form."""
        for cell in standard_library():
            if cell.sequential or not cell.inputs:
                continue
            n = len(cell.inputs)
            for pos in range(n):
                for rest in itertools.product(
                        (LOGIC_0, LOGIC_1, LOGIC_X), repeat=n - 1):
                    sides = rest[:pos] + (LOGIC_X,) + rest[pos:]
                    free = [k for k in range(n)
                            if k != pos and sides[k] == LOGIC_X]
                    expected = True
                    for bits in itertools.product((0, 1), repeat=len(free)):
                        vals = list(sides)
                        for k, bit in zip(free, bits):
                            vals[k] = bit
                        vals[pos] = LOGIC_0
                        low = cell.scalar(*vals)
                        vals[pos] = LOGIC_1
                        expected &= cell.scalar(*vals) == low
                    assert _pin_blocked(cell, pos, sides) == expected, (
                        cell.name, pos, sides)
