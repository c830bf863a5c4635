"""Unit tests for the debug package: interface spec and quiescent inputs."""

from repro.debug.interface import DebugInterface, discover_debug_interface, find_quiescent_inputs
from repro.soc.debug_logic import DEBUG_CONTROL_PORTS


class TestDebugInterface:
    def test_counts(self):
        spec = DebugInterface(control_inputs={"a": 0, "b": 1},
                              observation_outputs=["x", "y", "z"])
        assert spec.control_count == 2
        assert spec.observation_count == 3

    def test_validate_against_netlist(self, debug_cell_circuit):
        spec = discover_debug_interface(debug_cell_circuit)
        assert spec is not None
        assert spec.validate_against(debug_cell_circuit) == []
        bad = DebugInterface(control_inputs={"missing": 0, "do": 0},
                             observation_outputs=["fi"])
        problems = bad.validate_against(debug_cell_circuit)
        assert len(problems) == 3

    def test_discover_returns_none_without_annotation(self, and_or_circuit):
        assert discover_debug_interface(and_or_circuit) is None

    def test_discover_on_generated_core(self, tiny_soc):
        spec = discover_debug_interface(tiny_soc.cpu)
        assert spec is not None
        assert spec.control_count == len(DEBUG_CONTROL_PORTS) == 17
        assert spec.observation_count == 2 * tiny_soc.config.cpu.data_width
        assert spec.validate_against(tiny_soc.cpu) == []

    def test_find_quiescent_inputs(self, and_or_circuit):
        activity = {"a": 10, "b": 0, "c": 3}
        assert find_quiescent_inputs(and_or_circuit, activity) == ["b"]

    def test_find_quiescent_excludes_clock_and_scan(self, tiny_soc):
        activity = {p: 0 for p in tiny_soc.cpu.input_ports()}
        quiescent = find_quiescent_inputs(tiny_soc.cpu, activity)
        assert "clk" not in quiescent
        assert "rst_n" not in quiescent
        assert "scan_enable" not in quiescent
        assert "scan_in0" not in quiescent
        assert "jtag_tck" in quiescent
