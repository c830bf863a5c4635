"""Unit tests for combinational and sequential simulation."""

import pytest

from repro.netlist.builder import NetlistBuilder
from repro.netlist.cells import LOGIC_0, LOGIC_1, LOGIC_X
from repro.simulation.sequential import SequentialSimulator

from tests.conftest import all_input_patterns, build_small_adder_circuit


class TestCombinationalSimulator:
    """The combinational half of a clock cycle: the net values one
    :meth:`SequentialSimulator.step` returns."""

    def test_and_or_truth_table(self, and_or_circuit):
        sim = SequentialSimulator(and_or_circuit)
        for pattern in all_input_patterns(["a", "b", "c"]):
            values = sim.step(pattern)
            assert values["y"] == ((pattern["a"] & pattern["b"]) | pattern["c"])
            assert values["z"] == 1 - pattern["c"]

    def test_missing_inputs_default_to_x(self, and_or_circuit):
        sim = SequentialSimulator(and_or_circuit)
        values = sim.step({"a": 0, "b": 1})
        assert values["y"] == LOGIC_X  # AND=0, c unknown -> OR output unknown
        assert values["z"] == LOGIC_X
        values = sim.step({"c": 1})
        assert values["y"] == LOGIC_1  # controlling value resolves the OR

    def test_tied_net_overrides_driver(self, and_or_circuit):
        and_or_circuit.net("y").tied = LOGIC_0
        sim = SequentialSimulator(and_or_circuit)
        values = sim.step({"a": 1, "b": 1, "c": 1})
        assert values["y"] == LOGIC_0

    def test_tied_input_port_ignores_supplied_value(self, and_or_circuit):
        and_or_circuit.net("c").tied = LOGIC_0
        sim = SequentialSimulator(and_or_circuit)
        values = sim.step({"a": 1, "b": 1, "c": 1})
        assert values["y"] == 1  # c forced to 0, a&b=1

    def test_adder_matches_integer_addition(self):
        netlist = build_small_adder_circuit(4)
        sim = SequentialSimulator(netlist)
        for x in range(16):
            for y in range(16):
                inputs = {f"a[{i}]": (x >> i) & 1 for i in range(4)}
                inputs.update({f"b[{i}]": (y >> i) & 1 for i in range(4)})
                values = sim.step(inputs)
                total = sum(values[f"s[{i}]"] << i for i in range(4))
                total += values["co"] << 4
                assert total == x + y

    def test_next_state_computation(self):
        b = NetlistBuilder("ff")
        clk = b.add_input("clk")
        d = b.add_input("d")
        q = b.dff(d, clk, name="ff0")
        sim = SequentialSimulator(b.build())
        sim.step({"d": 1})
        assert sim.peek(q) == 1
        sim.step({"d": 0})
        assert sim.peek(q) == 0


class TestSequentialSimulator:
    def test_shift_register_behaviour(self):
        b = NetlistBuilder("sr")
        clk = b.add_input("clk")
        d = b.add_input("d")
        q0 = b.dff(d, clk, name="ff0")
        q1 = b.dff(q0, clk, name="ff1")
        out = b.add_output("out")
        b.buf(q1, output=out)
        sim = SequentialSimulator(b.build())
        outputs = sim.run([{"d": 1}, {"d": 0}, {"d": 0}, {"d": 0}])
        assert [o["out"] for o in outputs] == [0, 0, 1, 0]

    def test_reset_clears_state_and_cycle(self):
        b = NetlistBuilder("sr")
        clk = b.add_input("clk")
        d = b.add_input("d")
        b.dff(d, clk, name="ff0")
        sim = SequentialSimulator(b.build())
        sim.step({"d": 1})
        assert sim.cycle == 1
        sim.reset()
        assert sim.cycle == 0
        assert all(v == LOGIC_0 for v in sim.state.values())

    def test_x_initialisation(self):
        b = NetlistBuilder("sr")
        clk = b.add_input("clk")
        d = b.add_input("d")
        b.dff(d, clk, name="ff0")
        sim = SequentialSimulator(b.build(), x_init=True)
        assert all(v == LOGIC_X for v in sim.state.values())

    def test_peek_poke(self):
        b = NetlistBuilder("sr")
        clk = b.add_input("clk")
        d = b.add_input("d")
        q = b.dff(d, clk, name="ff0")
        sim = SequentialSimulator(b.build())
        sim.poke(q, 1)
        assert sim.peek(q) == 1
        with pytest.raises(KeyError):
            sim.poke("not_a_state_net", 1)

    def test_counter_counts(self):
        """A 2-bit counter built from XOR/AND increments every cycle."""
        b = NetlistBuilder("cnt")
        clk = b.add_input("clk")
        one = b.tie1()
        q0 = b.netlist.get_or_create_net("q0").name
        q1 = b.netlist.get_or_create_net("q1").name
        d0 = b.xor(q0, one)
        carry = b.gate("AND2", q0, one)
        d1 = b.xor(q1, carry)
        b.dff(d0, clk, q=q0, name="c0")
        b.dff(d1, clk, q=q1, name="c1")
        out0 = b.add_output("o0")
        out1 = b.add_output("o1")
        b.buf(q0, output=out0)
        b.buf(q1, output=out1)
        sim = SequentialSimulator(b.build())
        seen = []
        for _ in range(5):
            values = sim.step({})
            seen.append((values["o1"] << 1) | values["o0"])
        assert seen == [0, 1, 2, 3, 0]


class TestInvalidLogicValues:
    """A value outside 0/1/X raises the library's one ValueError wherever it
    is applied, instead of being simulated as X (or a bare KeyError)."""

    def test_sequential_step_and_poke(self):
        b = NetlistBuilder("sr")
        clk = b.add_input("clk")
        d = b.add_input("d")
        q = b.dff(d, clk, name="ff0")
        sim = SequentialSimulator(b.build())
        with pytest.raises(ValueError, match="invalid logic value 7 on net 'd' of sr"):
            sim.step({"d": 7})
        with pytest.raises(ValueError, match=f"invalid logic value 7 on net '{q}' of sr"):
            sim.poke(q, 7)
