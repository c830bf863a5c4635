"""Unit tests for the structural-Verilog writer/parser."""

import pytest

from repro.netlist.builder import NetlistBuilder
from repro.netlist.verilog import VerilogParseError, parse_verilog, write_verilog

from tests.conftest import all_input_patterns, build_and_or_circuit
from tests.legacy_sim import LegacyCombinationalSimulator


SAMPLE = """
// a small hand-written netlist
module sample (a, b, clk, y);
  input a, b, clk;
  output y;

  wire n1;
  wire q;

  AND2 g1 (.A(a), .B(b), .Y(n1));
  DFF  ff1 (.D(n1), .CK(clk), .Q(q));
  INV  g2 (.A(q), .Y(y));
endmodule
"""


class TestParser:
    def test_parse_sample(self):
        netlist = parse_verilog(SAMPLE)
        assert netlist.name == "sample"
        assert set(netlist.input_ports()) == {"a", "b", "clk"}
        assert netlist.output_ports() == ["y"]
        assert set(netlist.instances) == {"g1", "ff1", "g2"}
        assert netlist.instance("ff1").is_sequential

    def test_comments_ignored(self):
        text = SAMPLE.replace("AND2 g1", "/* block\ncomment */ AND2 g1")
        netlist = parse_verilog(text)
        assert "g1" in netlist.instances

    def test_unconnected_pin_allowed(self):
        text = """
        module m (a, y);
          input a;
          output y;
          HA h1 (.A(a), .B(a), .S(y), .CO());
        endmodule
        """
        netlist = parse_verilog(text)
        assert netlist.instance("h1").pin("CO").net is None

    def test_missing_module_raises(self):
        with pytest.raises(VerilogParseError):
            parse_verilog("wire x;")

    def test_missing_endmodule_raises(self):
        with pytest.raises(VerilogParseError):
            parse_verilog("module m (a); input a;")

    def test_unknown_cell_raises(self):
        text = """
        module m (a, y);
          input a;
          output y;
          MYSTERY g (.A(a), .Y(y));
        endmodule
        """
        with pytest.raises(VerilogParseError):
            parse_verilog(text)


def _module(*body):
    return ("module m (a, y);\n  input a;\n  output y;\n"
            + "\n".join(body) + "\nendmodule\n")


class TestParserValidation:
    """A malformed netlist fails at the parser, naming the problem."""

    def test_combinational_loop_rejected(self):
        text = _module("  AND2 g1 (.A(a), .B(n2), .Y(n1));",
                       "  INV g2 (.A(n1), .Y(n2));",
                       "  BUF g3 (.A(n1), .Y(y));")
        with pytest.raises(VerilogParseError, match="loop"):
            parse_verilog(text)

    def test_undriven_output_port_rejected(self):
        text = _module("  BUF g1 (.A(a), .Y(n1));")
        with pytest.raises(VerilogParseError,
                           match="output port 'y' has no driver"):
            parse_verilog(text)

    def test_load_on_undriven_net_rejected(self):
        text = _module("  AND2 g1 (.A(a), .B(floating), .Y(y));")
        with pytest.raises(VerilogParseError,
                           match="net 'floating' .* has no driver"):
            parse_verilog(text)

    def test_unconnected_input_pin_rejected(self):
        text = _module("  AND2 g1 (.A(a), .B(), .Y(y));")
        with pytest.raises(VerilogParseError, match="unconnected"):
            parse_verilog(text)

    def test_unknown_pin_rejected(self):
        text = _module("  BUF u1 (.A(a), .Q(y));")
        with pytest.raises(VerilogParseError, match="no pin 'Q'"):
            parse_verilog(text)


class TestWriterRoundTrip:
    def test_round_trip_structure(self):
        original = build_and_or_circuit()
        text = write_verilog(original)
        parsed = parse_verilog(text)
        assert parsed.name == original.name
        assert parsed.ports == original.ports
        assert set(parsed.instances) == set(original.instances)
        for name, inst in original.instances.items():
            clone = parsed.instance(name)
            assert clone.cell.name == inst.cell.name
            for port, pin in inst.pins.items():
                expected = pin.net.name if pin.net else None
                actual = clone.pin(port).net.name if clone.pin(port).net else None
                assert expected == actual

    def test_round_trip_preserves_behaviour(self):
        original = build_and_or_circuit()
        parsed = parse_verilog(write_verilog(original))
        sim_a = LegacyCombinationalSimulator(original)
        sim_b = LegacyCombinationalSimulator(parsed)
        for pattern in all_input_patterns(["a", "b", "c"]):
            va = sim_a.evaluate(pattern)
            vb = sim_b.evaluate(pattern)
            assert va["y"] == vb["y"]
            assert va["z"] == vb["z"]

    def test_bus_port_names_survive(self):
        b = NetlistBuilder("busmod")
        data = b.add_input_bus("data", 3)
        y = b.add_output("y")
        b.and_(*data, output=y)
        parsed = parse_verilog(write_verilog(b.build()))
        assert set(parsed.input_ports()) == set(data)

    def test_generated_core_round_trips(self, tiny_soc):
        text = write_verilog(tiny_soc.cpu)
        parsed = parse_verilog(text)
        assert parsed.stats()["instances"] == tiny_soc.cpu.stats()["instances"]
        assert parsed.stats()["pins"] == tiny_soc.cpu.stats()["pins"]
