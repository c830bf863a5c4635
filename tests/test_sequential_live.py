"""The event-driven cycle simulator equals the full-sweep oracle every cycle.

:class:`~repro.simulation.sequential.SequentialSimulator` keeps its net
values live across cycles and re-evaluates only the fanout of what changed.
Here every cycle is compared with the original full-sweep simulator kept in
:mod:`tests.legacy_sim`: the value of every net, the stored state, and the
changed-net set the live cycle reports (with each net's old value).  At the
monitor level, :class:`~repro.sbst.monitor.ToggleMonitor`'s toggle counts
and packed capture are compared with the name-keyed monitor that stored one
dict per cycle.

Covered: tiny's SBST suite, and hypothesis random sequential netlists with
tied inputs, tied state nets, ``x_init=True``, ``poke`` and ``reset``
mid-run, a netlist edit between runs (the rebuild path) and inputs left X.
"""

from __future__ import annotations

import contextlib
from types import SimpleNamespace
from typing import Dict, List, Mapping
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.manipulation.tie import tie_net, tie_port
from repro.netlist.builder import NetlistBuilder
from repro.netlist.cells import LOGIC_0, LOGIC_1, LOGIC_X
from repro.netlist.module import Netlist
from repro.sbst import ToggleMonitor, generate_sbst_suite
from repro.sbst.monitor import pattern_windows
from repro.simulation.sequential import SequentialSimulator

from tests.legacy_sim import (LegacySequentialSimulator, LegacyToggleMonitor,
                              _decode)
from tests.test_properties import _GATE_CHOICES

VALUES = (LOGIC_0, LOGIC_1, LOGIC_X)


class Lockstep:
    """A live simulator and the oracle, driven alike and compared after
    every operation."""

    def __init__(self, netlist: Netlist, x_init: bool = False) -> None:
        self.live = SequentialSimulator(netlist, x_init=x_init)
        self.oracle = LegacySequentialSimulator(netlist, x_init=x_init)
        #: Net values of the previous cycle, by name (none before the first).
        self.previous: Dict[str, int] = {}
        self.check_state()

    def check_state(self) -> None:
        assert self.live.state == self.oracle.state
        for name, value in self.oracle.state.items():
            assert self.live.peek(name) == value

    def step(self, inputs: Mapping[str, int]) -> None:
        before = self.live.state
        returned = {}
        advance = self.live.advance

        def spy(planes):
            returned["cycle"] = advance(planes)
            return returned["cycle"]

        with mock.patch.object(self.live, "advance", spy):
            values = self.live.step(inputs)
        expected = self.oracle.step(inputs)
        assert values == expected
        changed, state_changed = returned["cycle"]
        names = self.live.compiled.net_names
        assert {names[nid]: old for nid, old in changed.items()} == {
            name: self.previous.get(name, LOGIC_X)
            for name, value in expected.items()
            if value != self.previous.get(name, LOGIC_X)}
        self.check_state()
        after = self.live.state
        assert {names[nid] for nid in state_changed} == {
            name for name, value in after.items()
            if value != before.get(name, LOGIC_0)}
        self.previous = expected

    def poke(self, name: str, value: int) -> None:
        self.live.poke(name, value)
        self.oracle.poke(name, value)
        self.check_state()

    def reset(self, x_init: bool) -> None:
        self.live.reset(x_init)
        self.oracle.reset(x_init)
        assert self.live.cycle == 0
        self.check_state()


# --------------------------------------------------------------------- #
# random sequential netlists
# --------------------------------------------------------------------- #
N_INSTR, N_MEM = 3, 2


@st.composite
def sequential_circuits(draw, max_gates: int = 10,
                        max_flops: int = 4) -> Netlist:
    """A random sequential netlist: gates over the inputs and flop outputs,
    flops (DFF / DFFR / SDFF) fed from any net, so state feeds back."""
    b = NetlistBuilder("random_sequential")
    clk = b.add_input("clk")
    nets: List[str] = ([b.add_input("rst_n"), b.add_input("dbg")]
                       + b.add_input_bus("instr_in", N_INSTR)
                       + b.add_input_bus("mem_rdata", N_MEM))
    n_flops = draw(st.integers(min_value=1, max_value=max_flops))
    qs = [b.netlist.get_or_create_net(f"q{k}").name for k in range(n_flops)]
    nets += qs

    def pick() -> str:
        return nets[draw(st.integers(min_value=0, max_value=len(nets) - 1))]

    for index in range(draw(st.integers(min_value=1, max_value=max_gates))):
        cell = draw(st.sampled_from(_GATE_CHOICES))
        arity = len(b.netlist.library.get(cell).inputs)
        nets.append(b.gate(cell, *[pick() for _ in range(arity)],
                           name=f"g{index}"))
    for k, q in enumerate(qs):
        kind = draw(st.sampled_from(["DFF", "DFFR", "SDFF"]))
        if kind == "SDFF":
            b.sdff(pick(), pick(), pick(), clk, q=q, name=f"ff{k}")
        else:
            b.dff(pick(), clk, q=q, name=f"ff{k}",
                  reset_n=pick() if kind == "DFFR" else None)
    for k, net in enumerate(nets[-draw(st.integers(1, 3)):]):
        b.buf(net, output=b.add_output(f"o{k}"), name=f"obuf{k}")
    netlist = b.build()
    if draw(st.booleans()):
        tie_port(netlist, draw(st.sampled_from(netlist.input_ports())),
                 draw(st.sampled_from((LOGIC_0, LOGIC_1))))
    if draw(st.booleans()):
        tie_net(netlist, draw(st.sampled_from(qs)),
                draw(st.sampled_from((LOGIC_0, LOGIC_1))))
    return netlist


def _edit(netlist: Netlist, draw) -> None:
    """A structural or tie edit, so the compiled netlist is rebuilt."""
    if draw(st.booleans()):
        nets = sorted(netlist.nets)
        a = draw(st.sampled_from(nets))
        c = draw(st.sampled_from(nets))
        netlist.add_instance(f"edit_g{len(netlist.instances)}", "XOR2",
                             {"A": a, "B": c,
                              "Y": f"edit{len(netlist.instances)}"})
    else:
        untied = sorted(name for name, net in netlist.nets.items()
                        if net.tied is None)
        tie_net(netlist, draw(st.sampled_from(untied)),
                draw(st.sampled_from((LOGIC_0, LOGIC_1))))


def _inputs(draw, netlist: Netlist) -> Dict[str, int]:
    """Random input values; an omitted port is left X."""
    return {port: draw(st.sampled_from(VALUES))
            for port in netlist.input_ports() if draw(st.integers(0, 4))}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_live_cycles_match_oracle_on_random_netlists(data):
    draw = data.draw
    netlist = draw(sequential_circuits())
    run = Lockstep(netlist, x_init=draw(st.booleans()))
    for _ in range(draw(st.integers(min_value=1, max_value=24))):
        action = draw(st.sampled_from(
            ["step"] * 8 + ["poke", "reset", "edit"]))
        if action == "poke":
            state_nets = sorted(run.oracle.state)
            run.poke(draw(st.sampled_from(state_nets)),
                     draw(st.sampled_from(VALUES)))
        elif action == "reset":
            run.reset(draw(st.booleans()))
        elif action == "edit":
            _edit(netlist, draw)
        run.step(_inputs(draw, netlist))


def _programs(draw, count: int) -> List[List[int]]:
    return [draw(st.lists(st.integers(0, (1 << N_INSTR) - 1),
                          min_size=1, max_size=12)) for _ in range(count)]


@contextlib.contextmanager
def shadowed_cycles(shadows: Dict[int, LegacySequentialSimulator]):
    """Step a full-sweep oracle beside every live cycle and compare all net
    values and the stored state after each; yields a cycle counter.

    ``shadows`` maps ``id(live simulator)`` to its oracle; a simulator
    without one gets a fresh oracle at its first cycle."""
    checks = {"n": 0}
    advance = SequentialSimulator.advance

    def checked_advance(sim: SequentialSimulator, planes):
        shadow = shadows.setdefault(id(sim), LegacySequentialSimulator(
            sim.netlist))
        names = sim.compiled.net_names
        result = advance(sim, planes)
        expected = shadow.step({names[nid]: _decode(*bits)
                                for nid, bits in planes.items()})
        assert [_decode(sim.p1[nid], sim.p0[nid])
                for nid in range(len(names))] == [
            expected[name] for name in names]
        assert sim.state == shadow.state
        checks["n"] += 1
        return result

    with mock.patch.object(SequentialSimulator, "advance", checked_advance):
        yield checks


def _assert_capture_matches(patterns, legacy: LegacyToggleMonitor,
                            start: int, stop: int) -> None:
    """``patterns`` equals the legacy monitor's cycles ``start:stop``."""
    window = LegacyToggleMonitor.__new__(LegacyToggleMonitor)
    window.controllable_nets = legacy.controllable_nets
    window.cycles = legacy.cycles[start:stop]
    assert len(patterns) == stop - start
    assert patterns.controllable_nets == legacy.controllable_nets
    whole = window.windows(max(1, stop - start))
    assert patterns.as_parallel_words() == (
        whole[0][0] if whole else {n: 0 for n in legacy.controllable_nets})
    for size in (64, 7, 1):
        assert ([(list(w.items()), n) for w, n in
                 pattern_windows(patterns, size)]
                == [(list(w.items()), n) for w, n in window.windows(size)])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_monitor_matches_name_keyed_monitor_on_random_netlists(data):
    draw = data.draw
    netlist = draw(sequential_circuits())
    free = [p for p in netlist.input_ports() if p in ("dbg", "clk")]
    mission = {p: draw(st.sampled_from(VALUES)) for p in free
               if draw(st.booleans())}
    live = ToggleMonitor(netlist, mission_inputs=mission)
    legacy = LegacyToggleMonitor(netlist, mission_inputs=mission)
    shadow = LegacySequentialSimulator(netlist)
    edited = False
    with shadowed_cycles({id(live.sim): shadow}) as checks:
        for words in _programs(draw, draw(st.integers(1, 3))):
            between = draw(st.sampled_from(["none", "poke", "reset", "edit"]))
            edited = edited or between == "edit"
            if between == "poke":
                name = draw(st.sampled_from(sorted(legacy.sim.state)))
                value = draw(st.sampled_from(VALUES))
                for sim in (live.sim, legacy.sim, shadow):
                    sim.poke(name, value)
            elif between == "reset":
                x_init = draw(st.booleans())
                for sim in (live.sim, legacy.sim, shadow):
                    sim.reset(x_init)
            elif between == "edit":
                _edit(netlist, draw)
            cpi = draw(st.integers(1, 2))
            stream = draw(st.one_of(st.none(), st.lists(
                st.integers(0, (1 << N_MEM) - 1), min_size=1, max_size=3)))
            start = len(legacy.cycles)
            patterns = live.run_program(words, cycles_per_instruction=cpi,
                                        mem_rdata_stream=stream)
            legacy.run_program(words, cycles_per_instruction=cpi,
                               mem_rdata_stream=stream)
            if between == "edit":
                # Later programs see the edited netlist's controllable nets.
                legacy.controllable_nets = patterns.controllable_nets
            _assert_capture_matches(patterns, legacy, start,
                                    len(legacy.cycles))
            assert live.toggle_counts == legacy.toggle_counts
    assert checks["n"] == len(legacy.cycles)
    if not edited:
        # (Nets an edit adds are listed by first toggle in the legacy
        # monitor and by net ID here.)
        assert list(live.toggle_counts) == list(legacy.toggle_counts)
    assert live.quiescent_nets() == [
        net for net, count in legacy.toggle_counts.items() if count == 0]


def test_tiny_suite_matches_oracle_every_cycle(tiny_soc):
    programs = generate_sbst_suite(tiny_soc.config.cpu)
    live = ToggleMonitor(tiny_soc.cpu)
    legacy = LegacyToggleMonitor(tiny_soc.cpu)
    with shadowed_cycles({}) as checks:
        patterns = live.run_suite(programs)
    for program in programs:
        legacy.run_program(program.words)
    assert checks["n"] == len(legacy.cycles) == len(patterns)
    _assert_capture_matches(patterns, legacy, 0, len(legacy.cycles))
    assert live.toggle_counts == legacy.toggle_counts
    assert live.quiescent_nets() == [
        net for net, count in legacy.toggle_counts.items() if count == 0]


# --------------------------------------------------------------------- #
# each case on a fixed netlist, so none depends on what hypothesis draws
# --------------------------------------------------------------------- #
def _fixed_netlist() -> Netlist:
    b = NetlistBuilder("fixed_sequential")
    clk = b.add_input("clk")
    rst_n = b.add_input("rst_n")
    a, c, d = b.add_input("a"), b.add_input("c"), b.add_input("d")
    q0 = b.netlist.get_or_create_net("q0").name
    q1 = b.netlist.get_or_create_net("q1").name
    q2 = b.netlist.get_or_create_net("q2").name
    x = b.xor(a, q0)
    y = b.gate("AND2", x, q1)
    z = b.mux(c, y, q2)
    b.dff(x, clk, q=q0, name="ff0")
    b.dff(z, clk, q=q1, reset_n=rst_n, name="ff1")
    b.sdff(y, d, c, clk, q=q2, name="ff2")
    b.buf(z, output=b.add_output("out"), name="obuf")
    return b.build()


SEQUENCE = [{"a": 1, "c": 0, "d": 1, "rst_n": 1},
            {"a": 0, "c": 1, "d": 0, "rst_n": 1},
            {"a": 1, "c": 1, "rst_n": 1},          # d left X
            {"a": 1, "c": 0, "d": 1, "rst_n": 0},
            {"c": 0, "d": 1, "rst_n": 1},          # a left X
            {"a": 0, "c": 0, "d": 0, "rst_n": 1}]


@pytest.mark.parametrize("x_init", [False, True])
def test_fixed_sequence(x_init):
    run = Lockstep(_fixed_netlist(), x_init=x_init)
    for inputs in SEQUENCE:
        run.step(inputs)


def test_tied_input_and_tied_state_net():
    netlist = _fixed_netlist()
    tie_port(netlist, "a", LOGIC_1)
    tie_net(netlist, "q1", LOGIC_1)
    run = Lockstep(netlist)
    for inputs in SEQUENCE:
        run.step(inputs)
    assert run.live.peek("q1") == LOGIC_1


def test_poke_and_reset_mid_run():
    run = Lockstep(_fixed_netlist())
    run.step(SEQUENCE[0])
    run.poke("q2", LOGIC_1)
    run.poke("q0", LOGIC_X)
    run.step(SEQUENCE[1])
    run.step(SEQUENCE[1])       # the pokes last one cycle
    run.reset(x_init=True)
    run.step(SEQUENCE[2])
    run.poke("q1", LOGIC_0)
    run.reset(x_init=False)     # a reset discards a pending poke
    for inputs in SEQUENCE:
        run.step(inputs)


def test_a_poke_lasts_one_cycle_when_nothing_else_moves():
    """q2's cell reads none of q2's fanout, so only the poke itself can
    bring it back to its next-state value."""
    run = Lockstep(_fixed_netlist())
    for _ in range(3):
        run.step(SEQUENCE[0])
    run.poke("q2", LOGIC_1 - run.live.peek("q2"))
    for _ in range(3):
        run.step(SEQUENCE[0])


def test_untied_floating_net_returns_to_x():
    netlist = _fixed_netlist()
    netlist.add_instance("spare_and", "AND2",
                         {"A": "spare", "B": "a", "Y": "spare_out"})
    tie_net(netlist, "spare", LOGIC_1)
    run = Lockstep(netlist)
    run.step(SEQUENCE[0])
    netlist.net("spare").tied = None        # undriven again: X
    run.step(SEQUENCE[0])
    assert run.live.step(SEQUENCE[0])["spare"] == LOGIC_X


def test_netlist_edit_between_runs():
    netlist = _fixed_netlist()
    run = Lockstep(netlist)
    for inputs in SEQUENCE[:3]:
        run.step(inputs)
    tie_net(netlist, "q0", LOGIC_0)        # a tie edit: rebuild
    for inputs in SEQUENCE[:3]:
        run.step(inputs)
    netlist.add_instance("extra_ff", "DFF",
                         {"D": "out", "CK": "clk", "Q": "extra"})
    run.step(SEQUENCE[3])                  # a structural edit: new state net
    for inputs in SEQUENCE:
        run.step(inputs)


def test_monitor_folds_toggles_across_a_rebuild():
    netlist = _fixed_netlist()
    words = [5, 2, 7, 0, 3, 6]
    mission = {"c": LOGIC_1}
    live = ToggleMonitor(netlist, mission_inputs=mission)
    legacy = LegacyToggleMonitor(netlist, mission_inputs=mission)
    live.run_program(words)
    legacy.run_program(words)
    tie_net(netlist, "q2", LOGIC_1)
    live.run_program(words)
    legacy.run_program(words)
    assert live.toggle_counts == legacy.toggle_counts
    assert any(live.toggle_counts.values())


def test_monitor_counts_from_its_own_second_cycle():
    """A cycle stepped before the monitor's first one is not compared."""
    netlist = _fixed_netlist()
    live = ToggleMonitor(netlist)
    legacy = LegacyToggleMonitor(netlist)
    for sim in (live.sim, legacy.sim):
        sim.step({"a": 1, "c": 1, "d": 1, "rst_n": 1})
    live.run_program([0, 1, 0])
    legacy.run_program([0, 1, 0])
    assert live.toggle_counts == legacy.toggle_counts


def test_step_keeps_its_contract_without_a_monitor():
    """``step`` returns every net by name, and ``run`` the output ports of
    the same cycles."""
    netlist = _fixed_netlist()
    sim = SequentialSimulator(netlist)
    twin = SequentialSimulator(netlist)
    values = sim.step(SEQUENCE[0])
    assert set(values) == set(sim.compiled.net_names)
    assert twin.step(SEQUENCE[0]) == values
    stepped = [twin.step(vector) for vector in SEQUENCE[1:3]]
    ports = netlist.output_ports()
    assert ports
    assert sim.run(SEQUENCE[1:3]) == [{port: v[port] for port in ports}
                                      for v in stepped]


def test_capture_without_recording_keeps_the_nets():
    netlist = _fixed_netlist()
    patterns = ToggleMonitor(netlist).run_suite(
        [SimpleNamespace(words=[1, 2, 3])], capture=False)
    assert len(patterns) == 0
    assert patterns.as_parallel_words() == {
        net: 0 for net in patterns.controllable_nets}
    assert pattern_windows(patterns, 64) == []
