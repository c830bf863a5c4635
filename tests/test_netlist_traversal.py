"""Unit tests for netlist traversal: the combinational topological order."""

import pytest

from repro.netlist.builder import NetlistBuilder
from repro.netlist.module import INPUT, Netlist
from repro.netlist.traversal import (
    CombinationalLoopError,
    topological_instances,
)


def chain_circuit():
    """a -> INV -> AND(with b) -> DFF -> INV -> y"""
    b = NetlistBuilder("chain")
    a = b.add_input("a")
    bb = b.add_input("b")
    clk = b.add_input("clk")
    y = b.add_output("y")
    n1 = b.inv(a)
    n2 = b.gate("AND2", n1, bb)
    q = b.dff(n2, clk, name="ff")
    b.inv(q, output=y)
    return b.build()


class TestTopological:
    def test_order_respects_dependencies(self):
        netlist = chain_circuit()
        order = [i.name for i in topological_instances(netlist)]
        assert order.index("inv_0") < order.index("and2_0")
        assert "ff" not in order  # sequential cells excluded

    def test_loop_detection(self):
        netlist = Netlist("loop")
        netlist.add_port("a", INPUT)
        netlist.add_instance("g1", "AND2", {"A": "a", "B": "n2", "Y": "n1"})
        netlist.add_instance("g2", "INV", {"A": "n1", "Y": "n2"})
        with pytest.raises(CombinationalLoopError):
            topological_instances(netlist)

    def test_sequential_break_no_loop(self):
        # A feedback path through a flip-flop is not a combinational loop.
        netlist = Netlist("seqloop")
        netlist.add_port("clk", INPUT)
        netlist.add_port("a", INPUT)
        netlist.add_instance("g1", "AND2", {"A": "a", "B": "q", "Y": "d"})
        netlist.add_instance("ff", "DFF", {"D": "d", "CK": "clk", "Q": "q"})
        assert len(topological_instances(netlist)) == 1
