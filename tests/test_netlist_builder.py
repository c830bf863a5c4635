"""Unit tests for the NetlistBuilder convenience layer."""

import pytest

from repro.netlist.builder import NetlistBuilder
from repro.netlist.validate import check_netlist

from tests.conftest import all_input_patterns
from tests.legacy_sim import LegacyCombinationalSimulator


class TestPortsAndNets:
    def test_bus_declaration(self):
        b = NetlistBuilder("m")
        nets = b.add_input_bus("data", 4)
        assert nets == [f"data[{i}]" for i in range(4)]
        assert all(n in b.netlist.ports for n in nets)

    def test_new_net_is_unique(self):
        b = NetlistBuilder("m")
        names = {b.new_net() for _ in range(50)}
        assert len(names) == 50

    def test_new_bus_width(self):
        b = NetlistBuilder("m")
        assert len(b.new_bus("x", 7)) == 7


class TestGateHelpers:
    def test_gate_arity_mismatch_raises(self):
        b = NetlistBuilder("m")
        a = b.add_input("a")
        with pytest.raises(ValueError):
            b.gate("AND2", a)

    def test_gate_requires_single_output_cell(self):
        b = NetlistBuilder("m")
        a = b.add_input("a")
        c = b.add_input("b")
        with pytest.raises(ValueError):
            b.gate("HA", a, c)

    def test_named_output_net_used(self):
        b = NetlistBuilder("m")
        a = b.add_input("a")
        y = b.add_output("y")
        out = b.inv(a, output=y)
        assert out == "y"
        assert b.netlist.net("y").driver is not None

    def test_wide_and_tree_matches_python_and(self):
        b = NetlistBuilder("m")
        inputs = b.add_input_bus("i", 9)
        y = b.add_output("y")
        b.and_(*inputs, output=y)
        netlist = b.build()
        assert not check_netlist(netlist)
        sim = LegacyCombinationalSimulator(netlist)
        for pattern in all_input_patterns(inputs[:5]):
            full = {n: 1 for n in inputs}
            full.update(pattern)
            values = sim.evaluate(full)
            assert values["y"] == int(all(full.values()))

    def test_wide_or_tree_single_input(self):
        b = NetlistBuilder("m")
        a = b.add_input("a")
        y = b.add_output("y")
        b.or_(a, output=y)
        sim = LegacyCombinationalSimulator(b.build())
        assert sim.evaluate({"a": 1})["y"] == 1
        assert sim.evaluate({"a": 0})["y"] == 0

    def test_tree_with_no_inputs_raises(self):
        with pytest.raises(ValueError):
            NetlistBuilder("m").and_()

    def test_mux_select_semantics(self):
        b = NetlistBuilder("m")
        s = b.add_input("s")
        d0 = b.add_input("d0")
        d1 = b.add_input("d1")
        y = b.add_output("y")
        b.mux(s, d0, d1, output=y)
        sim = LegacyCombinationalSimulator(b.build())
        assert sim.evaluate({"s": 0, "d0": 1, "d1": 0})["y"] == 1
        assert sim.evaluate({"s": 1, "d0": 1, "d1": 0})["y"] == 0

    def test_tie_cells(self):
        b = NetlistBuilder("m")
        y0 = b.add_output("y0")
        y1 = b.add_output("y1")
        b.tie0(output=y0)
        b.tie1(output=y1)
        sim = LegacyCombinationalSimulator(b.build())
        values = sim.evaluate({})
        assert values["y0"] == 0 and values["y1"] == 1


class TestSequentialHelpers:
    def test_dff_and_register(self):
        b = NetlistBuilder("m")
        clk = b.add_input("clk")
        d = b.add_input_bus("d", 3)
        q = b.register(d, clk, prefix="r")
        assert len(q) == 3
        assert sum(1 for i in b.netlist.instances.values() if i.is_sequential) == 3

    def test_dff_with_reset_uses_dffr(self):
        b = NetlistBuilder("m")
        clk = b.add_input("clk")
        rst = b.add_input("rst_n")
        d = b.add_input("d")
        b.dff(d, clk, reset_n=rst, name="ff0")
        assert b.netlist.instance("ff0").cell.name == "DFFR"

    def test_sdff_helper(self):
        b = NetlistBuilder("m")
        for p in ("clk", "d", "si", "se"):
            b.add_input(p)
        b.sdff("d", "si", "se", "clk", name="sff")
        inst = b.netlist.instance("sff")
        assert inst.cell.name == "SDFF"
        assert inst.pin("SE").net.name == "se"
