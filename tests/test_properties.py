"""Property-based tests (hypothesis) over randomly generated circuits.

A random-circuit strategy builds small combinational netlists gate by gate;
the properties then cross-check independent implementations against each
other: Verilog round-trip vs. simulation, serial vs. pattern-parallel fault
simulation, PODEM verdicts vs. exhaustive fault simulation, tie-analysis
soundness, and fault-collapsing equivalence.
"""

from __future__ import annotations

import itertools
from typing import List

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.atpg.podem import Podem, PodemStatus
from repro.atpg.tie_analysis import TieAnalysis
from repro.faults.collapse import equivalence_classes
from repro.faults.faultlist import generate_fault_list
from repro.netlist.builder import NetlistBuilder
from repro.netlist.cells import LOGIC_0, LOGIC_1
from repro.netlist.module import Netlist
from repro.netlist.verilog import parse_verilog, write_verilog
from repro.simulation.fault_sim import FaultSimulator
from repro.simulation.parallel import ParallelPatternSimulator
from repro.simulation.simulator import CombinationalSimulator

from tests.conftest import all_input_patterns

_GATE_CHOICES = ["AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2", "INV", "BUF",
                 "MUX2", "AO21", "OAI21"]

N_INPUTS = 4


@st.composite
def random_circuits(draw, max_gates: int = 12) -> Netlist:
    """Build a random combinational netlist over N_INPUTS primary inputs."""
    n_gates = draw(st.integers(min_value=1, max_value=max_gates))
    b = NetlistBuilder("random_circuit")
    nets: List[str] = [b.add_input(f"i{k}") for k in range(N_INPUTS)]
    for index in range(n_gates):
        cell = draw(st.sampled_from(_GATE_CHOICES))
        arity = len(b.netlist.library.get(cell).inputs)
        sources = [nets[draw(st.integers(min_value=0, max_value=len(nets) - 1))]
                   for _ in range(arity)]
        nets.append(b.gate(cell, *sources, name=f"g{index}"))
    # Observe the last few gate outputs (and always the final one).
    n_outputs = draw(st.integers(min_value=1, max_value=min(3, n_gates)))
    for k, net in enumerate(nets[-n_outputs:]):
        b.buf(net, output=b.add_output(f"o{k}"), name=f"obuf{k}")
    return b.build()


def _input_names() -> List[str]:
    return [f"i{k}" for k in range(N_INPUTS)]


def _pack_patterns(patterns):
    words = {name: 0 for name in _input_names()}
    for index, pattern in enumerate(patterns):
        for name, value in pattern.items():
            if value:
                words[name] |= 1 << index
    return words


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_circuits())
def test_verilog_round_trip_preserves_behaviour(netlist):
    parsed = parse_verilog(write_verilog(netlist))
    sim_a = CombinationalSimulator(netlist)
    sim_b = CombinationalSimulator(parsed)
    outputs = netlist.output_ports()
    for pattern in all_input_patterns(_input_names()):
        va = sim_a.evaluate(pattern)
        vb = sim_b.evaluate(pattern)
        for port in outputs:
            assert va[port] == vb[port]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_circuits())
def test_serial_and_parallel_fault_simulation_agree(netlist):
    faults = generate_fault_list(netlist, include_ports=False).faults()
    patterns = list(all_input_patterns(_input_names()))
    serial = FaultSimulator(netlist).run(faults, patterns, drop_detected=True)
    parallel = ParallelPatternSimulator(netlist).detected_faults(
        faults, _pack_patterns(patterns), len(patterns))
    assert serial.detected == parallel


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_circuits(max_gates=8))
def test_podem_agrees_with_exhaustive_fault_simulation(netlist):
    """PODEM must call a fault DETECTED exactly when some input pattern
    detects it, and UNTESTABLE otherwise (no aborts on circuits this small)."""
    faults = generate_fault_list(netlist, include_ports=False).faults()
    patterns = list(all_input_patterns(_input_names()))
    simulator = FaultSimulator(netlist)
    podem = Podem(netlist, backtrack_limit=10_000)
    for fault in faults:
        detectable = any(simulator.detects(fault, p) for p in patterns)
        result = podem.generate(fault)
        assert result.status is not PodemStatus.ABORTED
        assert (result.status is PodemStatus.DETECTED) == detectable, str(fault)
        if result.status is PodemStatus.DETECTED:
            pattern = {name: result.pattern.get(name, 0) for name in _input_names()}
            assert simulator.detects(fault, pattern), str(fault)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_circuits(max_gates=8),
       st.integers(min_value=0, max_value=N_INPUTS - 1),
       st.integers(min_value=0, max_value=1))
def test_tie_analysis_is_sound(netlist, tied_input, tie_value):
    """Every fault the tie analysis declares untestable after tieing one input
    must be undetectable by exhaustive simulation of the remaining inputs."""
    netlist.net(f"i{tied_input}").tied = tie_value
    faults = generate_fault_list(netlist, include_ports=False).faults()
    analysis = TieAnalysis(netlist)
    result = analysis.run(faults)

    free_inputs = [name for name in _input_names() if name != f"i{tied_input}"]
    simulator = FaultSimulator(netlist)
    patterns = []
    for pattern in all_input_patterns(free_inputs):
        full = dict(pattern)
        full[f"i{tied_input}"] = tie_value
        patterns.append(full)
    for fault in result.untestable:
        assert not any(simulator.detects(fault, p) for p in patterns), str(fault)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_circuits(max_gates=8))
def test_collapse_classes_share_detection_sets(netlist):
    """Faults placed in the same structural equivalence class must be detected
    by exactly the same set of input patterns."""
    faults = generate_fault_list(netlist, include_ports=False).faults()
    classes = equivalence_classes(netlist, faults)
    patterns = list(all_input_patterns(_input_names()))
    simulator = FaultSimulator(netlist)

    def detection_signature(fault):
        return tuple(simulator.detects(fault, p) for p in patterns)

    for members in classes.values():
        if len(members) < 2:
            continue
        signatures = {detection_signature(fault) for fault in members}
        assert len(signatures) == 1, members


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_circuits())
def test_bit_parallel_matches_three_valued_on_specified_patterns(netlist):
    """On fully-specified patterns the two-valued bit-parallel simulation
    must agree with the three-valued CombinationalSimulator on every net."""
    patterns = list(all_input_patterns(_input_names()))
    words = ParallelPatternSimulator(netlist).good_simulation(
        _pack_patterns(patterns), len(patterns))
    sim = CombinationalSimulator(netlist)
    for index, pattern in enumerate(patterns):
        values = sim.evaluate(pattern, state=pattern)
        for net, value in values.items():
            assert value in (LOGIC_0, LOGIC_1), net  # fully specified
            assert (words[net] >> index) & 1 == value, (net, index)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_circuits())
def test_compiled_simulator_matches_legacy_including_x(netlist):
    """The compiled two-bit-plane evaluator must agree with the legacy
    object-graph simulator on every net, X inputs included."""
    from tests.legacy_sim import LegacyCombinationalSimulator

    compiled_sim = CombinationalSimulator(netlist)
    legacy_sim = LegacyCombinationalSimulator(netlist)
    names = _input_names()
    # Definite corners plus patterns with X on a rotating subset of inputs.
    patterns = list(all_input_patterns(names))
    for start in range(len(names)):
        pattern = {name: 2 if (k + start) % 2 else (k % 2)
                   for k, name in enumerate(names)}
        patterns.append(pattern)
    patterns.append({name: 2 for name in names})
    for pattern in patterns:
        assert compiled_sim.evaluate(pattern) == legacy_sim.evaluate(pattern)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_circuits())
def test_compiled_and_legacy_fault_simulation_verdicts_agree(netlist):
    """The compiled (batched, cone-limited) fault simulator must reproduce
    the legacy serial simulator's verdicts exactly — detected set, first
    detecting pattern, and per-pattern detects()."""
    from tests.legacy_sim import LegacyFaultSimulator

    faults = generate_fault_list(netlist, include_ports=False).faults()
    patterns = list(all_input_patterns(_input_names()))
    compiled_result = FaultSimulator(netlist).run(faults, patterns)
    legacy_result = LegacyFaultSimulator(netlist).run(faults, patterns,
                                                      drop_detected=True)
    assert compiled_result.detected == legacy_result.detected
    assert compiled_result.undetected == legacy_result.undetected
    assert compiled_result.detecting_pattern == legacy_result.detecting_pattern

    compiled_sim = FaultSimulator(netlist)
    legacy_sim = LegacyFaultSimulator(netlist)
    for fault in faults[:8]:
        for pattern in patterns[:4]:
            assert (compiled_sim.detects(fault, pattern)
                    == legacy_sim.detects(fault, pattern)), str(fault)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_circuits())
def test_clone_preserves_behaviour_and_fault_universe(netlist):
    clone = netlist.clone("clone")
    assert clone.stats() == netlist.stats()
    assert (set(generate_fault_list(clone).faults())
            == set(generate_fault_list(netlist).faults()))
    sim_a = CombinationalSimulator(netlist)
    sim_b = CombinationalSimulator(clone)
    for pattern in itertools.islice(all_input_patterns(_input_names()), 8):
        va = sim_a.evaluate(pattern)
        vb = sim_b.evaluate(pattern)
        for port in netlist.output_ports():
            assert va[port] == vb[port]
