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
from repro.netlist.cells import LOGIC_0, LOGIC_1, LOGIC_X, standard_library
from repro.netlist.compiled import get_compiled
from repro.netlist.module import Netlist
from repro.netlist.verilog import parse_verilog, write_verilog
from repro.simulation.fault_sim import FaultSimulator
from repro.simulation.parallel import (ParallelPatternSimulator,
                                       compute_good_words)

from tests.conftest import all_input_patterns
from tests.legacy_sim import LegacyCombinationalSimulator, compiled_sweep

#: Every combinational single-output cell of the standard library.
_GATE_CHOICES = [cell.name for cell in standard_library()
                 if not cell.sequential and len(cell.outputs) == 1
                 and cell.inputs]

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
    sim_a = LegacyCombinationalSimulator(netlist)
    sim_b = LegacyCombinationalSimulator(parsed)
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
    """On fully-specified patterns the two-valued word simulation of the
    good machine must agree with the three-valued oracle on every net."""
    patterns = list(all_input_patterns(_input_names()))
    compiled = get_compiled(netlist)
    words, _ = compute_good_words(compiled, _pack_patterns(patterns),
                                  len(patterns))
    oracle = LegacyCombinationalSimulator(netlist)
    for index, pattern in enumerate(patterns):
        values = oracle.evaluate(pattern, state=pattern)
        for net, value in values.items():
            assert value in (LOGIC_0, LOGIC_1), net  # fully specified
            word = words[compiled.net_id[net]]
            assert (word >> index) & 1 == value, (net, index)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_circuits(), st.data())
def test_compiled_simulator_matches_legacy_including_x(netlist, data):
    """The compiled two-bit-plane sweep (the good machine of the
    three-valued fault simulator) must agree with the legacy object-graph
    simulator on every net of every pattern of a window, with X inputs and
    with ties on driven nets, which the sweep must leave frozen."""
    driven = sorted(pin.net.name for inst in netlist.instances.values()
                    for pin in inst.output_pins() if pin.net is not None)
    for net in data.draw(st.lists(st.sampled_from(driven), max_size=3,
                                  unique=True), label="tied nets"):
        netlist.net(net).tied = data.draw(st.sampled_from((LOGIC_0, LOGIC_1)))
    logic = st.sampled_from((LOGIC_0, LOGIC_1, LOGIC_X))
    window = data.draw(st.lists(
        st.fixed_dictionaries({name: logic for name in _input_names()}),
        min_size=1, max_size=64), label="window")
    legacy = LegacyCombinationalSimulator(netlist)
    assert compiled_sweep(netlist, window) == [
        legacy.evaluate(pattern) for pattern in window]


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
    sim_a = LegacyCombinationalSimulator(netlist)
    sim_b = LegacyCombinationalSimulator(clone)
    for pattern in itertools.islice(all_input_patterns(_input_names()), 8):
        va = sim_a.evaluate(pattern)
        vb = sim_b.evaluate(pattern)
        for port in netlist.output_ports():
            assert va[port] == vb[port]
