"""Unit tests for the stuck-at fault model, fault lists and collapsing."""

import pytest

from repro.faults.categories import FaultClass, OnlineUntestableSource
from repro.faults.collapse import collapse_fault_list, equivalence_classes
from repro.faults.fault import SA0, SA1, StuckAtFault, fault_site_net, fault_site_pin
from repro.faults.faultlist import FaultList, generate_fault_list
from repro.faults.models import parse_fault

from tests.conftest import build_and_or_circuit


class TestStuckAtFault:
    def test_construction_and_str(self):
        fault = StuckAtFault("u1/A", SA1)
        assert str(fault) == "u1/A s-a-1"
        assert fault.instance_name == "u1"
        assert fault.pin_name == "A"
        assert not fault.is_port_fault

    def test_port_fault(self):
        fault = StuckAtFault("scan_enable", SA0)
        assert fault.is_port_fault
        assert fault.instance_name is None

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            StuckAtFault("u1/A", 2)

    def test_parse_roundtrip(self):
        fault = StuckAtFault("core.alu_add_3/CI", SA0)
        assert StuckAtFault.parse(str(fault)) == fault

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            StuckAtFault.parse("not a fault")

    def test_ordering_is_deterministic(self):
        faults = [StuckAtFault("b/A", SA1), StuckAtFault("a/A", SA0)]
        assert sorted(faults)[0].site == "a/A"

    def test_site_resolution(self):
        netlist = build_and_or_circuit()
        pin_fault = StuckAtFault("and2_0/A", SA0)
        assert fault_site_pin(netlist, pin_fault).name == "and2_0/A"
        assert fault_site_net(netlist, pin_fault) == "a"
        port_fault = StuckAtFault("a", SA1)
        assert fault_site_pin(netlist, port_fault) is None
        assert fault_site_net(netlist, port_fault) == "a"


class TestFaultListGeneration:
    def test_universe_size(self):
        netlist = build_and_or_circuit()
        faults = generate_fault_list(netlist)
        # 3 instances with 3+3+2=8 pins -> 16 pin faults, 5 ports -> 10 port faults.
        assert len(faults) == 26

    def test_exclude_ports(self):
        netlist = build_and_or_circuit()
        assert len(generate_fault_list(netlist, include_ports=False)) == 16

    def test_unconnected_pins_skipped_by_default(self):
        netlist = build_and_or_circuit()
        netlist.disconnect(netlist.instance("and2_0").pin("A"))
        with_unconnected = generate_fault_list(netlist, include_unconnected=True,
                                               include_ports=False)
        without = generate_fault_list(netlist, include_ports=False)
        assert len(with_unconnected) == len(without) + 2


class TestFaultListOperations:
    def _fault_list(self):
        return generate_fault_list(build_and_or_circuit())

    def test_deduplicates_in_first_seen_order(self):
        first, second = StuckAtFault("b/A", SA1), StuckAtFault("a/A", SA0)
        faults = FaultList([first, second, first], netlist_name="m")
        assert faults.faults() == [first, second]
        assert list(faults) == [first, second]
        assert len(faults) == 2
        assert faults.netlist_name == "m"

    def test_membership(self):
        faults = self._fault_list()
        assert StuckAtFault("and2_0/A", SA0) in faults
        assert StuckAtFault("nope/Z", SA0) not in faults

    def test_serialisation_roundtrip(self):
        faults = self._fault_list().faults()
        assert [parse_fault(str(fault)) for fault in faults] == faults


class TestFaultClasses:
    def test_untestable_predicate(self):
        assert FaultClass.UT.is_untestable
        assert FaultClass.UO.is_untestable
        assert not FaultClass.DT.is_untestable
        assert not FaultClass.AU.is_untestable

    def test_detected_predicate(self):
        assert FaultClass.DT.is_detected and FaultClass.PT.is_detected
        assert not FaultClass.UT.is_detected

    def test_table_row_mapping(self):
        assert OnlineUntestableSource.SCAN.table_row == "Scan"
        assert OnlineUntestableSource.DEBUG_CONTROL.table_row == "Debug"
        assert OnlineUntestableSource.DEBUG_OBSERVE.table_row == "Debug"
        assert OnlineUntestableSource.MEMORY_MAP.table_row == "Memory"
        assert OnlineUntestableSource.STRUCTURAL.table_row == "Original"


class TestCollapsing:
    def test_buffer_and_inverter_equivalences(self):
        from repro.netlist.builder import NetlistBuilder

        b = NetlistBuilder("m")
        a = b.add_input("a")
        y = b.add_output("y")
        n = b.buf(a)
        b.inv(n, output=y)
        netlist = b.build()
        faults = generate_fault_list(netlist, include_ports=False)
        classes = equivalence_classes(netlist, faults.faults())
        # buffer: in/out same polarity collapse; inverter flips polarity;
        # plus the stem/branch merge on the fanout-free intermediate net.
        sizes = sorted(len(members) for members in classes.values())
        assert sum(sizes) == len(faults)
        assert max(sizes) >= 3

    def test_and_gate_input_sa0_collapses_to_output_sa0(self):
        netlist = build_and_or_circuit()
        faults = generate_fault_list(netlist, include_ports=False)
        classes = equivalence_classes(netlist, faults.faults())
        rep_of = {}
        for representative, members in classes.items():
            for member in members:
                rep_of[member] = representative
        a_sa0 = StuckAtFault("and2_0/A", SA0)
        b_sa0 = StuckAtFault("and2_0/B", SA0)
        y_sa0 = StuckAtFault("and2_0/Y", SA0)
        assert rep_of[a_sa0] == rep_of[b_sa0] == rep_of[y_sa0]
        # stuck-at-1 faults on AND inputs are NOT equivalent to each other.
        a_sa1 = StuckAtFault("and2_0/A", SA1)
        b_sa1 = StuckAtFault("and2_0/B", SA1)
        assert rep_of[a_sa1] != rep_of[b_sa1]

    def test_collapse_reduces_fault_count(self, tiny_soc):
        faults = generate_fault_list(tiny_soc.cpu)
        collapsed = collapse_fault_list(tiny_soc.cpu, faults)
        assert 0 < len(collapsed) < len(faults)
        # Typical collapse ratios are between 40% and 80% of the original.
        ratio = len(collapsed) / len(faults)
        assert 0.3 < ratio < 0.9

    def test_collapse_keeps_one_representative_per_class(self):
        netlist = build_and_or_circuit()
        faults = generate_fault_list(netlist)
        collapsed = collapse_fault_list(netlist, faults)
        assert collapsed.netlist_name == faults.netlist_name
        classes = equivalence_classes(netlist, faults.faults())
        assert collapsed.faults() == list(classes)
        assert all(rep in faults for rep in collapsed)
