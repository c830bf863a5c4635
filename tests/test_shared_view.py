"""The per-netlist-state memos behind PODEM and the random phase.

PODEM's combinational view (:func:`repro.atpg.view.get_view`), which owns
the mission constants, and the random phase's good-machine bursts live on
the compiled netlist, so they must follow the netlist's state: a tie made
after a classification gets new ones, and structurally identical clones
share one.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import get_static_analysis
from repro.atpg.engine import AtpgEffort, StructuralUntestabilityEngine
from repro.atpg.podem import Podem
from repro.atpg.random_patterns import random_pattern_detection
from repro.atpg.view import get_view
from repro.faults.faultlist import generate_fault_list
from repro.manipulation.tie import tie_net
from repro.netlist.builder import NetlistBuilder
from repro.netlist.cells import LOGIC_0
from repro.netlist.compiled import reset_compile_stats
from repro.simulation.parallel import ParallelPatternSimulator
from repro.utils.bitvec import mask

from tests.legacy_sim import podem_full_evaluation
from tests.test_properties import N_INPUTS, random_circuits


def _circuit():
    """A resettable flip-flop feeding reconvergent logic: tying its reset
    freezes the flop, which moves verdicts in every phase."""
    b = NetlistBuilder("shared_view")
    a, c, d, en = (b.add_input(name) for name in ("a", "c", "d", "en"))
    rst_n = b.add_input("rst_n")
    clk = b.add_input("clk")
    q = b.dff(d, clk, reset_n=rst_n, name="u_ff")
    n1 = b.gate("AND2", a, q, name="g_and")
    n2 = b.gate("OR2", n1, c, name="g_or")
    n3 = b.gate("XOR2", n2, q, name="g_xor")
    b.buf(n3, output=b.add_output("y"), name="u_y")
    b.gate("NAND2", n1, en, output=b.add_output("z"), name="g_nand")
    return b.build()


def _tie_with_api(netlist):
    tie_net(netlist, "rst_n", 0)


def _tie_directly(netlist):
    netlist.net("rst_n").tied = 0


def _verdicts(netlist):
    """FULL-effort engine classes and plain PODEM statuses, by fault name."""
    faults = generate_fault_list(netlist).faults()
    report = StructuralUntestabilityEngine(
        netlist, effort=AtpgEffort.FULL).classify(faults)
    podem = Podem(netlist)
    return ({str(f): report.classifications[f].value for f in faults},
            {str(f): podem.generate(f).status.value for f in faults})


@pytest.mark.parametrize("tie", [_tie_with_api, _tie_directly])
def test_tie_after_classify_gets_a_new_view(tie):
    netlist = _circuit()
    before = _verdicts(netlist)
    view = get_view(netlist)

    tie(netlist)
    after = _verdicts(netlist)
    assert get_view(netlist) is not view
    assert after != before

    reset_compile_stats(clear_cache=True)
    fresh = _circuit()
    tie(fresh)
    assert after == _verdicts(fresh)


def test_structural_clones_share_one_view():
    netlist = _circuit()
    clone = netlist.clone()
    assert clone is not netlist
    assert get_view(clone) is get_view(netlist)
    assert get_static_analysis(clone).view is get_view(netlist)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_circuits(max_gates=10), st.sampled_from([None, 0, 1]),
       st.integers(min_value=0, max_value=N_INPUTS - 1))
def test_view_base_is_the_fault_free_full_evaluation(netlist, tie_value,
                                                     tied_input):
    if tie_value is not None:
        netlist.net(f"i{tied_input}").tied = tie_value
    podem = Podem(netlist)
    good, faulty = podem_full_evaluation(podem, {}, None, -1, -1, LOGIC_0)
    assert podem.view.base == tuple(good) == tuple(faulty)


def _unmemoised_random_phase(netlist, faults, n_patterns, word_size, seed):
    """The random phase as a fresh simulator runs it: one self-contained
    window per ``word_size`` patterns, every good machine re-simulated."""
    rng = random.Random(seed)
    sim = ParallelPatternSimulator(netlist)
    controllable = [port for port in netlist.input_ports()
                    if netlist.net(port).tied is None]
    for inst in netlist.sequential_instances():
        for pin in inst.output_pins():
            if pin.net is not None and pin.net.tied is None:
                controllable.append(pin.net.name)
    remaining = set(faults)
    detected = set()
    applied = 0
    while applied < n_patterns and remaining:
        width = min(word_size, n_patterns - applied)
        patterns = {net: rng.getrandbits(width) & mask(width)
                    for net in controllable}
        newly = sim.detected_faults(remaining, patterns, width)
        detected |= newly
        remaining -= newly
        applied += width
    return detected


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_circuits(max_gates=10),
       st.sampled_from(["stuck_at", "transition"]),
       st.integers(min_value=0, max_value=2**16),
       st.integers(min_value=1, max_value=40),
       st.sampled_from([4, 7, 16]))
def test_memoised_random_phase_matches_a_fresh_simulator(
        netlist, model, seed, n_patterns, word_size):
    faults = generate_fault_list(netlist, model=model).faults()
    expected = _unmemoised_random_phase(netlist, faults, n_patterns,
                                        word_size, seed)
    for _ in range(2):  # the second call reads the memoised burst
        assert random_pattern_detection(
            netlist, faults, n_patterns=n_patterns, word_size=word_size,
            seed=seed) == expected


def test_memoised_random_phase_on_a_sequential_circuit():
    netlist = _circuit()
    for model in ("stuck_at", "transition"):
        faults = generate_fault_list(netlist, model=model).faults()
        for seed in (1, 2013):
            expected = _unmemoised_random_phase(netlist, faults, 20, 8, seed)
            assert random_pattern_detection(
                netlist, faults, n_patterns=20, word_size=8,
                seed=seed) == expected
