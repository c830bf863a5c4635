"""PODEM's live machine equals an independent full evaluation.

:class:`~repro.atpg.podem.LiveMachine` keeps the good and faulty machines
of a search live and re-evaluates only the fanout of what changed.  Here
every settle of every machine — the start of a search (the view's settled
fault-free machine plus the fault and any initial assignments), and the
state after each decision and each backtrack — is compared with the
original full-sweep machine kept in :mod:`tests.legacy_sim`: both value
arrays, the plane lanes behind them, the live D set, the detection test
and the D-frontier.
"""

from __future__ import annotations

import contextlib
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import get_static_analysis
from repro.atpg.dalg import DAlg
from repro.atpg.podem import LiveMachine, Podem, PodemStatus
from repro.faults.faultlist import generate_fault_list
from repro.faults.models import resolve_injection
from repro.netlist.builder import NetlistBuilder
from repro.netlist.cells import LOGIC_0, LOGIC_X, PLANE_ENCODING

from tests.legacy_sim import (podem_d_frontier_scan, podem_detected_scan,
                              podem_full_evaluation)
from tests.test_podem_pinned import PINNED, build_netlists, run_searches
from tests.test_properties import N_INPUTS, random_circuits


def _check(machine: LiveMachine) -> None:
    podem = machine.podem
    good, faulty = podem_full_evaluation(
        podem, machine.assignments, machine.stem, machine.branch_op,
        machine.branch_pos, machine.fault_value)
    assert machine.good == good
    assert machine.faulty == faulty
    for nid, (p1, p0) in enumerate(zip(machine.p1, machine.p0)):
        assert PLANE_ENCODING[good[nid]] == (p1 & 1, p0 & 1)
        assert PLANE_ENCODING[faulty[nid]] == (p1 >> 1, p0 >> 1)
    assert machine.d_nets == {
        nid for nid, (g, f) in enumerate(zip(good, faulty))
        if g != f and LOGIC_X not in (g, f)}
    assert machine.detected() == podem_detected_scan(podem, good, faulty)
    assert machine.d_frontier() == podem_d_frontier_scan(
        podem, good, faulty, machine.branch_op, machine.branch_pos,
        machine.fault_value)


@contextlib.contextmanager
def checked_machines():
    """Compare every settled machine with the oracle; yields a counter."""
    checks = {"n": 0}
    settle = LiveMachine.settle

    def checked_settle(machine: LiveMachine) -> None:
        settle(machine)
        _check(machine)
        checks["n"] += 1

    with mock.patch.object(LiveMachine, "settle", checked_settle):
        yield checks


def _cheapest_per_outcome(records):
    """Per (section, model, static, status) the pinned search with the
    fewest decisions — every injection case and verdict, at a cost the
    full-sweep oracle can afford at each step."""
    chosen = {}
    for record in records:
        key = (record["section"], record["model"], record["static"],
               record["status"])
        if key not in chosen or record["decisions"] < chosen[key]["decisions"]:
            chosen[key] = record
    return sorted(chosen.values(), key=records.index)


def test_live_machine_matches_full_evaluation_on_pinned_sample():
    records = _cheapest_per_outcome(json.loads(PINNED.read_text())["records"])
    runs = [{k: r[k] for k in ("section", "netlist", "model", "index",
                               "static")} for r in records]
    with checked_machines() as checks:
        replayed = run_searches(runs, build_netlists())
    assert replayed == records
    assert checks["n"] > sum(r["decisions"] for r in records)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_circuits(max_gates=8),
       st.sampled_from(["stuck_at", "transition"]),
       st.sampled_from([None, 0, 1]),
       st.integers(min_value=0, max_value=N_INPUTS - 1))
def test_live_machine_matches_full_evaluation_on_random_netlists(
        netlist, model, tie_value, tied_input):
    """Plain, statically guided and D-algorithm searches (whose detected
    cubes are replayed on a fresh live machine), optionally with one input
    tied so stem faults sit on a tied net."""
    if tie_value is not None:
        netlist.net(f"i{tied_input}").tied = tie_value
    faults = generate_fault_list(netlist, model=model).faults()
    engines = [Podem(netlist, backtrack_limit=64),
               Podem(netlist, backtrack_limit=64,
                     static=get_static_analysis(netlist)),
               DAlg(netlist, backtrack_limit=64)]
    with checked_machines() as checks:
        for engine in engines:
            for fault in faults:
                engine.generate(fault)
    assert checks["n"] > 0


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_circuits(max_gates=8), st.sampled_from([None, 0, 1]),
       st.integers(min_value=0, max_value=N_INPUTS - 1))
def test_machine_started_with_assignments_matches_full_evaluation(
        netlist, tie_value, tied_input):
    """A machine starts from the view's settled fault-free planes and takes
    its initial assignments as events.  Replay every detected transition
    fault's launch cube on a fault-free machine (the launch frame) and its
    capture cube on a machine with the fault injected."""
    if tie_value is not None:
        netlist.net(f"i{tied_input}").tied = tie_value
    podem = Podem(netlist, backtrack_limit=64)
    compiled = podem.compiled
    replayed = 0
    with checked_machines() as checks:
        for fault in generate_fault_list(netlist, model="transition").faults():
            result = podem.generate(fault)
            if result.status is not PodemStatus.DETECTED:
                continue
            launch = [(compiled.id_of(name), value)
                      for name, value in result.init_pattern.items()]
            capture = [(compiled.id_of(name), value)
                       for name, value in result.pattern.items()]
            LiveMachine(podem, None, -1, -1, LOGIC_0, launch)
            stem, branch_op, branch_pos = podem.view.fault_refs(fault)
            spec = resolve_injection(fault)
            machine = LiveMachine(podem, stem, branch_op, branch_pos,
                                  spec.stuck_value, capture)
            assert machine.detected()
            assert machine.assignments == dict(capture)
            replayed += 1
    assert checks["n"] >= 2 * replayed


def _tied_side_input_circuit(tie_value: int):
    """One gate per family with its side input ``s`` tied, so both
    polarities of its free pin are branch faults next to a constant."""
    b = NetlistBuilder(f"tied_side_{tie_value}")
    a = b.add_input("a")
    c = b.add_input("c")
    s = b.add_input("s")
    for cell in ("AND2", "OR2", "NAND2", "XOR2"):
        out = b.gate(cell, a, s, name=f"g_{cell.lower()}")
        b.gate("AND2", out, c, output=b.add_output(f"y_{cell.lower()}"),
               name=f"obs_{cell.lower()}")
    b.gate("MUX2", a, c, s, output=b.add_output("y_mux"), name="g_mux")
    netlist = b.build()
    netlist.net("s").tied = tie_value
    return netlist


@pytest.mark.parametrize("tie_value", [0, 1])
def test_branch_fault_beside_a_tied_side_input(tie_value):
    netlist = _tied_side_input_circuit(tie_value)
    podem = Podem(netlist)
    # Input-pin faults of the gates reading ``s``: all branch faults.
    tied_sides = [f for f in generate_fault_list(netlist).faults()
                  if f.site.startswith("g_") and not f.site.endswith("/Y")]
    assert tied_sides
    with checked_machines() as checks:
        for fault in tied_sides:
            assert podem.view.fault_refs(fault)[1] >= 0
            stem, branch_op, branch_pos = podem.view.fault_refs(fault)
            LiveMachine(podem, stem, branch_op, branch_pos,
                        resolve_injection(fault).stuck_value)
            podem.generate(fault)
    assert checks["n"] > len(tied_sides)
