"""Integration tests: the full paper flow on generated cores, cross-module
consistency, and soundness of the identified on-line untestable faults."""

import pytest

from repro.atpg.podem import Podem, PodemStatus
from repro.api import Session
from repro.faults.categories import OnlineUntestableSource
from repro.faults.faultlist import generate_fault_list
from repro.manipulation.disconnect import disconnect_output_port
from repro.manipulation.tie import tie_port
from repro.netlist.verilog import parse_verilog, write_verilog
from repro.scan.chain_tracer import trace_scan_chains
from repro.soc.config import SoCConfig
from repro.soc.soc_builder import build_soc


class TestSmallCoreFlow:
    @pytest.fixture(scope="class")
    def small_report(self, small_soc):
        return Session().analyze(small_soc)

    def test_small_core_proportions(self, small_soc, small_report):
        """On the mid-size core the Table-I shape emerges: scan is the largest
        source and the total lands in the 5%-30% band."""
        report = small_report
        scan = report.source_count(OnlineUntestableSource.SCAN)
        assert scan == max(s.count for s in report.sources)
        fraction = report.total_online_untestable / report.total_faults
        assert 0.05 < fraction < 0.30

    def test_debug_split_reported(self, small_report):
        ctrl = small_report.source_count(OnlineUntestableSource.DEBUG_CONTROL)
        obs = small_report.source_count(OnlineUntestableSource.DEBUG_OBSERVE)
        assert ctrl > 0 and obs > 0

    def test_scan_count_matches_chain_structure(self, small_soc, small_report):
        chains = trace_scan_chains(small_soc.cpu)
        cells = sum(c.length for c in chains)
        scan_identified = len(small_report.scan_result.untestable)
        # 3 cell-pin faults per scan cell plus path-buffer and port faults.
        assert scan_identified >= 3 * cells

    def test_report_runtime_reasonable(self, small_report):
        # The paper stresses the analysis itself is fast (< 1 s on the
        # industrial design with TetraMax); our pure-Python engine should
        # stay within interactive bounds on the mid-size core.
        assert sum(small_report.runtimes.values()) < 120.0


class TestSoundnessOnTinyCore:
    """Every fault the flow prunes must be genuinely untestable: PODEM on the
    appropriately manipulated circuit must fail to generate a test."""

    @pytest.fixture(scope="class")
    def mission_netlist(self, tiny_soc):
        """The tiny core with its full mission configuration applied."""
        netlist = tiny_soc.cpu.clone("mission_view")
        interface = tiny_soc.debug_interface
        for port, value in interface.control_inputs.items():
            tie_port(netlist, port, value)
        for port in interface.observation_outputs:
            disconnect_output_port(netlist, port)
        # Scan is unusable in the field: scan enable held in functional mode,
        # scan-in pins grounded.
        scan = tiny_soc.cpu.annotations["scan_insertion"]
        tie_port(netlist, scan["scan_enable_port"], 0)
        for port in scan["scan_in_ports"]:
            tie_port(netlist, port, 0)
        for port in scan["scan_out_ports"]:
            disconnect_output_port(netlist, port)
        # Frozen address bits: as in §3.3 of the paper, both the input and the
        # output of every flip-flop storing a frozen bit are tied (the mission
        # software never generates addresses outside the memory map).
        from repro.memory.analysis import constant_address_bits

        constants = constant_address_bits(tiny_soc.memory_map)
        for record in tiny_soc.cpu.annotations["address_registers"]:
            for ff, q_net, bit in zip(record["ff_instances"], record["q_nets"],
                                      record["address_bits"]):
                if bit not in constants:
                    continue
                value = constants[bit]
                if netlist.nets[q_net].tied is None:
                    netlist.nets[q_net].tied = value
                ff_inst = netlist.instance(ff)
                data_pin_name = ff_inst.cell.role_pin("data")
                data_net = ff_inst.pin(data_pin_name).net
                if data_net is not None and data_net.tied is None:
                    data_net.tied = value
        return netlist

    def test_sampled_pruned_faults_are_untestable_in_mission_view(
            self, tiny_soc, tiny_flow_report, mission_netlist):
        podem = Podem(mission_netlist, backtrack_limit=2000)
        pruned = sorted(tiny_flow_report.online_untestable)
        sample = pruned[:: max(1, len(pruned) // 60)][:60]
        for fault in sample:
            result = podem.generate(fault)
            assert result.status in (PodemStatus.UNTESTABLE, PodemStatus.ABORTED), (
                f"{fault} was pruned but PODEM found a test in the mission view")


class TestCrossModuleConsistency:
    def test_flow_on_verilog_round_tripped_core(self, tiny_soc, tiny_flow_report):
        """Writing the core to Verilog, parsing it back and re-running the flow
        must identify the same number of faults per source (annotations are
        re-attached to the parsed netlist)."""
        parsed = parse_verilog(write_verilog(tiny_soc.cpu))
        parsed.annotations = dict(tiny_soc.cpu.annotations)
        report = Session().analyze(parsed, memory_map=tiny_soc.memory_map)
        for source in OnlineUntestableSource:
            if source is OnlineUntestableSource.STRUCTURAL:
                continue
            assert (report.source_count(source)
                    == tiny_flow_report.source_count(source)), source

    def test_fault_universe_sizes_agree(self, tiny_soc, tiny_flow_report):
        assert tiny_flow_report.total_faults == len(generate_fault_list(tiny_soc.cpu))

    def test_building_twice_gives_identical_netlists(self):
        first = build_soc(SoCConfig.tiny())
        second = build_soc(SoCConfig.tiny())
        assert first.cpu.stats() == second.cpu.stats()
        assert set(first.cpu.instances) == set(second.cpu.instances)
        assert set(first.cpu.nets) == set(second.cpu.nets)
