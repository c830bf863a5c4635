"""Unit tests for serial and pattern-parallel fault simulation."""

import random

import pytest

from repro.faults.fault import SA0, SA1, StuckAtFault
from repro.faults.faultlist import generate_fault_list
from repro.netlist.builder import NetlistBuilder
from repro.netlist.cells import LOGIC_0, LOGIC_1
from repro.simulation.fault_sim import FaultSimulator
from repro.simulation.parallel import ParallelPatternSimulator
from repro.simulation.simulator import CombinationalSimulator

from tests.conftest import all_input_patterns


class TestSerialFaultSimulator:
    def test_detects_and_gate_input_fault(self, and_or_circuit):
        sim = FaultSimulator(and_or_circuit)
        fault = StuckAtFault("and2_0/A", SA0)
        # Excite: a=1, b=1 (so faulty AND output differs), c=0 to propagate.
        assert sim.detects(fault, {"a": 1, "b": 1, "c": 0})
        # c=1 blocks the OR gate: no detection.
        assert not sim.detects(fault, {"a": 1, "b": 1, "c": 1})
        # a=0 does not excite.
        assert not sim.detects(fault, {"a": 0, "b": 1, "c": 0})

    def test_port_fault_detection(self, and_or_circuit):
        sim = FaultSimulator(and_or_circuit)
        fault = StuckAtFault("c", SA1)
        assert sim.detects(fault, {"a": 0, "b": 0, "c": 0})

    def test_output_port_fault(self, and_or_circuit):
        sim = FaultSimulator(and_or_circuit)
        fault = StuckAtFault("y", SA0)
        assert sim.detects(fault, {"a": 1, "b": 1, "c": 1})
        assert not sim.detects(fault, {"a": 0, "b": 0, "c": 0})

    def test_run_with_fault_dropping(self, and_or_circuit):
        sim = FaultSimulator(and_or_circuit)
        faults = generate_fault_list(and_or_circuit, include_ports=False).faults()
        patterns = list(all_input_patterns(["a", "b", "c"]))
        result = sim.run(faults, patterns)
        # Every fault of this small irredundant circuit is detectable.
        assert result.undetected == set()
        assert result.coverage == 1.0
        assert all(fault in result.detecting_pattern for fault in result.detected)

    def test_run_without_dropping_counts_all(self, and_or_circuit):
        sim = FaultSimulator(and_or_circuit)
        faults = [StuckAtFault("and2_0/A", SA0)]
        patterns = list(all_input_patterns(["a", "b", "c"]))
        result = sim.run(faults, patterns, drop_detected=False)
        assert result.detected == set(faults)

    def test_observation_through_ff_inputs(self):
        b = NetlistBuilder("ffobs")
        clk = b.add_input("clk")
        a = b.add_input("a")
        c = b.add_input("b")
        n = b.gate("AND2", a, c)
        b.dff(n, clk, name="ff")
        netlist = b.build()
        fault = StuckAtFault("and2_0/Y", SA0)
        observed = FaultSimulator(netlist, observe_state_inputs=True)
        hidden = FaultSimulator(netlist, observe_state_inputs=False)
        pattern = {"a": 1, "b": 1}
        assert observed.detects(fault, pattern)
        assert not hidden.detects(fault, pattern)

    def test_tied_net_blocks_detection(self, and_or_circuit):
        and_or_circuit.net("c").tied = 1  # OR output forced to 1
        sim = FaultSimulator(and_or_circuit)
        fault = StuckAtFault("and2_0/A", SA0)
        assert not sim.detects(fault, {"a": 1, "b": 1, "c": 0})


class TestParallelPatternSimulator:
    def _pack(self, patterns, names):
        words = {name: 0 for name in names}
        for index, pattern in enumerate(patterns):
            for name in names:
                if pattern[name]:
                    words[name] |= 1 << index
        return words

    def test_good_simulation_matches_serial(self, and_or_circuit):
        serial = CombinationalSimulator(and_or_circuit)
        parallel = ParallelPatternSimulator(and_or_circuit)
        patterns = list(all_input_patterns(["a", "b", "c"]))
        words = self._pack(patterns, ["a", "b", "c"])
        values = parallel.good_simulation(words, len(patterns))
        for index, pattern in enumerate(patterns):
            reference = serial.evaluate(pattern)
            for net in ("y", "z"):
                assert ((values[net] >> index) & 1) == reference[net]

    def test_detected_faults_match_serial(self, and_or_circuit):
        serial = FaultSimulator(and_or_circuit)
        parallel = ParallelPatternSimulator(and_or_circuit)
        faults = generate_fault_list(and_or_circuit, include_ports=False).faults()
        patterns = list(all_input_patterns(["a", "b", "c"]))
        words = self._pack(patterns, ["a", "b", "c"])

        parallel_detected = parallel.detected_faults(faults, words, len(patterns))
        serial_detected = serial.run(faults, patterns).detected
        assert parallel_detected == serial_detected

    def test_tied_nets_respected(self, and_or_circuit):
        and_or_circuit.net("c").tied = 1
        parallel = ParallelPatternSimulator(and_or_circuit)
        fault = StuckAtFault("and2_0/A", SA0)
        patterns = list(all_input_patterns(["a", "b", "c"]))
        words = self._pack(patterns, ["a", "b", "c"])
        assert fault not in parallel.detected_faults([fault], words, len(patterns))

    def test_exclude_output_ports(self, and_or_circuit):
        parallel = ParallelPatternSimulator(and_or_circuit,
                                            exclude_output_ports={"y", "z"})
        faults = generate_fault_list(and_or_circuit, include_ports=False).faults()
        patterns = list(all_input_patterns(["a", "b", "c"]))
        words = self._pack(patterns, ["a", "b", "c"])
        assert parallel.detected_faults(faults, words, len(patterns)) == set()


class TestEnginesAgreeOnTiny:
    """The three-valued serial engine and the two-valued word engine decode
    every fault site through one resolver, so on fully specified patterns
    they detect the same faults: stem, branch, sequential-pin and port
    faults, under both fault models."""

    @pytest.mark.parametrize("model,expected", [("stuck_at", 619),
                                                ("transition", 489)])
    def test_detected_sets_match(self, tiny_soc, model, expected):
        cpu = tiny_soc.cpu
        serial = FaultSimulator(cpu)
        controllable = [p for p in cpu.input_ports()
                        if cpu.net(p).tied is None] + serial.sim.state_nets
        rng = random.Random(2013)
        patterns = [{net: (LOGIC_1 if rng.getrandbits(1) else LOGIC_0)
                     for net in controllable} for _ in range(48)]
        words = {net: sum(1 << i for i, pattern in enumerate(patterns)
                          if pattern[net]) for net in controllable}
        faults = generate_fault_list(cpu, model=model).faults()[::7]
        assert any(fault.is_port_fault for fault in faults)
        reference = serial.run(faults, patterns).detected
        parallel = ParallelPatternSimulator(cpu).detected_faults(
            faults, words, len(patterns))
        assert parallel == reference
        assert (len(faults), len(reference)) == (1023, expected)
