"""Unit tests for the §3 analyses: scan, debug control, debug observe, memory map."""

import pytest

from repro.core.classification import compute_baseline_untestable
from repro.core.debug_control import identify_debug_control_untestable
from repro.core.debug_observe import identify_debug_observe_untestable
from repro.core.memory_analysis import identify_memory_map_untestable
from repro.core.scan_analysis import identify_scan_untestable, verify_scan_faults_with_engine
from repro.debug.interface import DebugInterface
from repro.faults.fault import SA0, SA1, StuckAtFault
from repro.faults.faultlist import generate_fault_list
from repro.memory.memory_map import MemoryMap, MemoryRegion
from repro.netlist.builder import NetlistBuilder


class TestScanAnalysis:
    def test_single_cell_matches_fig2(self, scan_cell_circuit):
        # Expose the cell through a one-cell chain: si/se are already ports.
        result = identify_scan_untestable(scan_cell_circuit, scan_in_ports=["si"])
        assert len(result.chains) == 1
        assert result.chains[0].cells == ["u_sdff"]
        assert StuckAtFault("u_sdff/SI", SA0) in result.serial_input_faults
        assert StuckAtFault("u_sdff/SI", SA1) in result.serial_input_faults
        # Only the functional-mode stuck value on SE is pruned.
        assert StuckAtFault("u_sdff/SE", SA0) in result.scan_enable_faults
        assert StuckAtFault("u_sdff/SE", SA1) not in result.scan_enable_faults
        # The functional pins are never pruned.
        assert all(f.pin_name != "D" for f in result.untestable if not f.is_port_fault)

    def test_counts_on_generated_core(self, tiny_soc):
        result = identify_scan_untestable(tiny_soc.cpu)
        counts = result.counts()
        n_cells = tiny_soc.scan.total_cells
        assert counts["cells"] == n_cells
        assert counts["serial_input"] == 2 * n_cells
        assert counts["scan_enable"] == n_cells
        # Path buffers contribute 4 faults each (2 pins x 2 polarities).
        assert counts["path"] == 4 * len(tiny_soc.scan.path_buffers)
        assert counts["total"] == len(result.untestable)

    def test_all_pruned_faults_exist_in_universe(self, tiny_soc):
        universe = set(generate_fault_list(tiny_soc.cpu).faults())
        result = identify_scan_untestable(tiny_soc.cpu)
        assert result.untestable <= universe

    def test_engine_cross_check(self, tiny_soc):
        """The paper's §4 sanity check: tieing SE makes the pruned SI faults
        come back as untestable-due-to-tied-value from the engine."""
        result = identify_scan_untestable(tiny_soc.cpu)
        sample = sorted(result.serial_input_faults)[:40]
        agreement = verify_scan_faults_with_engine(tiny_soc.cpu, result, sample)
        assert all(agreement.values())

    def test_clock_pin_option(self, scan_cell_circuit):
        with_clock = identify_scan_untestable(scan_cell_circuit,
                                              scan_in_ports=["si"],
                                              include_clock_pins=True)
        without = identify_scan_untestable(scan_cell_circuit, scan_in_ports=["si"])
        assert len(with_clock.untestable) == len(without.untestable) + 2


class TestDebugControlAnalysis:
    def test_fig4_cell(self, debug_cell_circuit):
        result = identify_debug_control_untestable(debug_cell_circuit)
        assert result.tied_ports == {"di": 0, "de": 0}
        new = result.newly_untestable
        assert StuckAtFault("de", SA0) in new
        assert StuckAtFault("di", SA0) in new
        assert StuckAtFault("u_dbgff/DE", SA0) in new
        # The mission data path is untouched.
        assert StuckAtFault("u_dbgff/D", SA0) not in new
        assert StuckAtFault("u_dbgff/D", SA1) not in new

    def test_no_interface_is_a_noop(self, and_or_circuit):
        result = identify_debug_control_untestable(and_or_circuit)
        assert result.newly_untestable == set()

    def test_explicit_interface_overrides_annotation(self, and_or_circuit):
        interface = DebugInterface(control_inputs={"c": 1})
        result = identify_debug_control_untestable(and_or_circuit, interface=interface)
        assert result.tied_ports == {"c": 1}
        assert StuckAtFault("c", SA1) in result.newly_untestable

    def test_original_netlist_not_mutated(self, tiny_soc):
        before = {n: net.tied for n, net in tiny_soc.cpu.nets.items()}
        identify_debug_control_untestable(tiny_soc.cpu)
        after = {n: net.tied for n, net in tiny_soc.cpu.nets.items()}
        assert before == after

    def test_generated_core_counts(self, tiny_soc):
        result = identify_debug_control_untestable(tiny_soc.cpu)
        assert result.counts()["tied_ports"] == 17
        assert len(result.newly_untestable) > 100


class TestDebugObserveAnalysis:
    def test_fig4_observation(self, debug_cell_circuit):
        result = identify_debug_observe_untestable(debug_cell_circuit)
        assert result.floated_ports == ["do"]
        new = result.newly_untestable
        assert StuckAtFault("u_do_buf/A", SA0) in new
        assert StuckAtFault("u_do_buf/Y", SA1) in new
        assert StuckAtFault("do", SA0) in new
        # The flip-flop remains observable through the functional output.
        assert StuckAtFault("u_dbgff/Q", SA0) not in new

    def test_generated_core_counts(self, tiny_soc):
        result = identify_debug_observe_untestable(tiny_soc.cpu)
        dw = tiny_soc.config.cpu.data_width
        assert len(result.floated_ports) == 2 * dw
        # At least the dedicated observation buffers and ports become untestable.
        assert len(result.newly_untestable) >= 2 * dw * 2

    def test_no_observation_outputs_is_noop(self, and_or_circuit):
        result = identify_debug_observe_untestable(and_or_circuit)
        assert result.newly_untestable == set()


class TestMemoryMapAnalysis:
    def _single_register_netlist(self):
        """A 4-bit address register feeding an adder-like AND stage."""
        b = NetlistBuilder("addr")
        clk = b.add_input("clk")
        rst = b.add_input("rst_n")
        d = b.add_input_bus("d", 4)
        other = b.add_input_bus("o", 4)
        y = b.add_output_bus("y", 4)
        q_nets = []
        for i in range(4):
            q = b.dff(d[i], clk, reset_n=rst, name=f"addr_ff{i}")
            q_nets.append(q)
            b.gate("AND2", q, other[i], output=y[i])
        netlist = b.build()
        netlist.annotations["address_registers"] = [{
            "name": "addr",
            "ff_instances": [f"addr_ff{i}" for i in range(4)],
            "q_nets": q_nets,
            "address_bits": list(range(4)),
        }]
        return netlist

    def test_fig5_fig6_behaviour(self):
        netlist = self._single_register_netlist()
        # Map only 4 addresses: bits 2 and 3 are frozen at 0.
        memory_map = MemoryMap(4, [MemoryRegion("ram", 0, 4)])
        result = identify_memory_map_untestable(netlist, memory_map=memory_map)
        assert set(result.constant_bits) == {2, 3}
        assert set(result.tied_flops) == {"addr_ff2", "addr_ff3"}
        new = result.newly_untestable
        # Fig. 5: the frozen flip-flops lose their stuck-at-0 faults.
        assert StuckAtFault("addr_ff2/D", SA0) in new
        assert StuckAtFault("addr_ff2/Q", SA0) in new
        assert StuckAtFault("addr_ff2/D", SA1) not in new
        # Fig. 6: the tie propagates into the downstream AND gates.
        assert any(f.instance_name and f.instance_name.startswith("and2")
                   for f in new)
        # Free bits keep all their faults.
        assert StuckAtFault("addr_ff0/D", SA0) not in new

    def test_tie_outputs_ablation(self):
        """Tieing only the flip-flop inputs (stopping at the FF boundary)
        finds strictly fewer faults than also tieing the outputs (Fig. 6)."""
        netlist = self._single_register_netlist()
        memory_map = MemoryMap(4, [MemoryRegion("ram", 0, 4)])
        full = identify_memory_map_untestable(netlist, memory_map=memory_map,
                                              tie_flop_outputs=True)
        inputs_only = identify_memory_map_untestable(netlist, memory_map=memory_map,
                                                     tie_flop_outputs=False)
        assert inputs_only.newly_untestable < full.newly_untestable

    def test_missing_memory_map_raises(self):
        netlist = self._single_register_netlist()
        with pytest.raises(ValueError):
            identify_memory_map_untestable(netlist)

    def test_fully_free_map_is_noop(self):
        netlist = self._single_register_netlist()
        memory_map = MemoryMap(4, [MemoryRegion("all", 0, 16)])
        result = identify_memory_map_untestable(netlist, memory_map=memory_map)
        assert result.newly_untestable == set()
        assert result.tied_flops == []

    def test_generated_core(self, tiny_soc):
        result = identify_memory_map_untestable(tiny_soc.cpu,
                                                memory_map=tiny_soc.memory_map)
        assert result.tied_flops
        assert result.newly_untestable
        # Only address-register flops are tied.
        allowed_prefixes = ("agu_", "btb_", "spr_epc")
        assert all(name.startswith(allowed_prefixes) for name in result.tied_flops)


class TestBaseline:
    def test_baseline_is_stable(self, tiny_soc):
        faults = generate_fault_list(tiny_soc.cpu).faults()
        first = compute_baseline_untestable(tiny_soc.cpu, faults)
        second = compute_baseline_untestable(tiny_soc.cpu, faults)
        assert first == second

    def test_baseline_small_relative_to_universe(self, tiny_soc):
        faults = generate_fault_list(tiny_soc.cpu).faults()
        baseline = compute_baseline_untestable(tiny_soc.cpu, faults)
        assert len(baseline) < 0.1 * len(faults)
