"""The grouped, in-place word kernel against the original walk.

:func:`repro.simulation.parallel.detect_windows` simulates each distinct
injection once (inert entries dropped, a single-load stem folded onto its
branch, entries grouped by site and spec) on one in-place value list per
window.  These checks compare it with the original per-entry overlay walk
kept in :mod:`tests.legacy_sim`, on random netlists, random observation
subsets and random windowed pattern streams, and pin the facts the
grouping relies on.
"""

from __future__ import annotations

import random
import sys
import threading
from typing import List

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.atpg.podem import Podem, PodemStatus
from repro.faults.faultlist import generate_fault_list
from repro.faults.models import resolve_injection
from repro.manipulation.tie import tie_net
from repro.netlist.builder import NetlistBuilder
from repro.netlist.cells import LOGIC_0, LOGIC_1
from repro.netlist.compiled import get_compiled
from repro.netlist.module import Netlist
from repro.runtime import (build_chunks, cone_representative,
                           default_chunk_size)
from repro.sbst import FaultGrader, ToggleMonitor, generate_sbst_suite
from repro.simulation.kernels import injection_site, resolve_site, word_tables
from repro.simulation.parallel import (ParallelPatternSimulator,
                                       compute_good_words, detect_windows,
                                       injection_groups)

from tests.legacy_sim import (LegacyCombinationalSimulator,
                              legacy_detect_windows)

_SINGLE_OUTPUT = ["AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2", "INV",
                  "BUF", "MUX2", "AO21", "OAI21", "AND3"]


@st.composite
def kernel_circuits(draw, max_cells: int = 12) -> Netlist:
    """A random netlist over inputs and flip-flop outputs: single-output
    gates, half and full adders (an output may be left unconnected), a
    gate that reads one net on two pins, flip-flops whose ``D`` is a
    sequential load of any net, and optional tied nets."""
    b = NetlistBuilder("kernel_circuit")
    clk = b.add_input("clk")
    nets: List[str] = [b.add_input(f"i{k}") for k in range(4)]
    n_flops = draw(st.integers(min_value=0, max_value=3))
    qs = [b.netlist.get_or_create_net(f"q{k}").name for k in range(n_flops)]
    nets += qs

    def pick() -> str:
        return nets[draw(st.integers(min_value=0, max_value=len(nets) - 1))]

    for index in range(draw(st.integers(min_value=1, max_value=max_cells))):
        kind = draw(st.sampled_from(_SINGLE_OUTPUT + ["HA", "FA", "DUP"]))
        if kind == "DUP":
            net = pick()
            nets.append(b.gate(draw(st.sampled_from(["AND2", "XOR2", "OR2"])),
                               net, net, name=f"g{index}"))
        elif kind in ("HA", "FA"):
            ins = ("A", "B") if kind == "HA" else ("A", "B", "CI")
            pins = {pin: pick() for pin in ins}
            outs = [f"g{index}_s", f"g{index}_co"]
            if draw(st.booleans()):
                outs.pop(draw(st.integers(min_value=0, max_value=1)))
            for out in outs:
                pins["S" if out.endswith("_s") else "CO"] = out
            b.cell(kind, pins, name=f"g{index}")
            nets += outs
        else:
            arity = len(b.netlist.library.get(kind).inputs)
            nets.append(b.gate(kind, *[pick() for _ in range(arity)],
                               name=f"g{index}"))
    for k, q in enumerate(qs):
        b.dff(pick(), clk, q=q, name=f"ff{k}")
    n_outputs = draw(st.integers(min_value=1, max_value=3))
    for k, net in enumerate(nets[-n_outputs:]):
        b.buf(net, output=b.add_output(f"o{k}"), name=f"obuf{k}")
    netlist = b.build()
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        tie_net(netlist, draw(st.sampled_from(sorted(netlist.nets))),
                draw(st.sampled_from((LOGIC_0, LOGIC_1))))
    return netlist


def _windows(compiled, netlist, n_cycles, word_size, rng):
    """Good words of a random cycle stream over the controllable nets,
    cut into consecutive windows of ``word_size`` patterns."""
    controllable = (netlist.input_ports()
                    + LegacyCombinationalSimulator(netlist).state_nets)
    windows = []
    for start in range(0, n_cycles, word_size):
        width = min(word_size, n_cycles - start)
        words = {net: rng.getrandbits(width) for net in controllable}
        windows.append(compute_good_words(compiled, words, width) + (width,))
    return windows


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(netlist=kernel_circuits(),
       model=st.sampled_from(["stuck_at", "transition"]),
       word_size=st.sampled_from([1, 7, 64]),
       n_cycles=st.integers(min_value=1, max_value=90),
       drop=st.booleans(), seed=st.integers(min_value=0, max_value=2**16),
       data=st.data())
def test_detect_windows_matches_the_original_walk(netlist, model, word_size,
                                                  n_cycles, drop, seed,
                                                  data):
    compiled = get_compiled(netlist)
    obs = bytearray(data.draw(st.lists(st.booleans(), min_size=compiled.n_nets,
                                       max_size=compiled.n_nets)))
    windows = _windows(compiled, netlist, n_cycles, word_size,
                       random.Random(seed))
    faults = generate_fault_list(netlist, model=model).faults()
    entries = [(fault, resolve_site(compiled, fault), resolve_injection(fault))
               for fault in faults]
    expected = legacy_detect_windows(compiled, entries, windows, obs, drop)
    assert detect_windows(compiled, entries, iter(windows), obs) == expected


def _two_load_circuit():
    """``s`` feeds one pin of ``g1``; ``d`` feeds both pins of ``g2``;
    ``f`` feeds ``g3`` and a flip-flop ``D``."""
    b = NetlistBuilder("loads")
    clk = b.add_input("clk")
    a, c = b.add_input("a"), b.add_input("c")
    s = b.gate("AND2", a, c, name="g0")
    b.gate("OR2", s, c, output=b.add_output("o1"), name="g1")
    d = b.gate("INV", a, name="gd")
    b.gate("XOR2", d, d, output=b.add_output("o2"), name="g2")
    f = b.gate("BUF", c, name="gf")
    b.gate("INV", f, output=b.add_output("o3"), name="g3")
    b.dff(f, clk, q=b.add_output("qo"), name="ff")
    return b.build(), s, d, f


class TestInjectionSite:
    def test_single_load_stem_becomes_its_branch(self):
        netlist, s, d, f = _two_load_circuit()
        compiled = get_compiled(netlist)
        quiet = bytearray(compiled.n_nets)
        stem = ("net", compiled.net_id[s])
        op, pos = compiled.net_load_ops[compiled.net_id[s]][0]
        assert injection_site(compiled, stem, quiet) == ("branch", op, pos)
        # Observed, loaded on two pins, or loaded by a flip-flop: the stem
        # makes its own faulty machine.
        observed = bytearray(quiet)
        observed[compiled.net_id[s]] = 1
        assert injection_site(compiled, stem, observed) == stem
        for net in (d, f):
            site = ("net", compiled.net_id[net])
            assert injection_site(compiled, site, quiet) == site

    def test_only_grading_chunks_fold_stems(self, tiny_soc):
        """A word grade chunks a folded stem with its branch, so its
        chunks walk fewer injections; the cone representative, which
        ATPG chunking and the benchmark sample read, keeps the stem."""
        netlist = tiny_soc.cpu
        compiled = get_compiled(netlist)
        faults = generate_fault_list(netlist).faults()
        obs = bytearray(compiled.n_nets)
        entries = [(index, resolve_site(compiled, fault),
                    resolve_injection(fault))
                   for index, fault in enumerate(faults)]
        stems = [site for _key, site, _spec in entries
                 if injection_site(compiled, site, obs) != site]
        assert stems
        assert all(cone_representative(compiled, site) == site[1]
                   for site in stems)

        def walks(chunks) -> int:
            return sum(len(injection_groups(
                compiled, [entries[p] for p in chunk], obs))
                for chunk in chunks)

        size = default_chunk_size(2, len(faults))
        folded = build_chunks(netlist, faults, size, fold_stems=True)
        plain = build_chunks(netlist, faults, size)
        assert sorted(p for chunk in folded for p in chunk) == list(
            range(len(faults)))
        assert walks(folded) < walks(plain)

    def test_load_ops_are_deduplicated(self):
        netlist, _s, d, _f = _two_load_circuit()
        compiled = get_compiled(netlist)
        nid = compiled.net_id[d]
        assert len(compiled.net_load_ops[nid]) == 2
        assert len(word_tables(compiled).loads[nid]) == 1


def test_two_threads_on_one_compiled_netlist_return_the_serial_set(
        tiny_soc):
    """One compiled netlist (and its tables) is shared across threads;
    each grade keeps its own value list and queue."""
    netlist = tiny_soc.cpu
    patterns = ToggleMonitor(netlist).run_suite(
        generate_sbst_suite(tiny_soc.config.cpu))
    faults = generate_fault_list(netlist).faults()
    serial = FaultGrader(netlist).grade(patterns, faults)
    results = [None, None]

    def grade(slot: int) -> None:
        results[slot] = FaultGrader(netlist).grade(patterns, faults)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grade, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert serial and results == [serial, serial]


def test_sequential_input_pin_faults_are_never_detected(tiny_soc):
    """A fault on a flip-flop input pin changes only what the flop
    captures, never the combinational time frame: the word kernel resolves
    it inert and detects none under every observation point, and PODEM,
    whose machine gets no injection for it, never reports a test."""
    netlist = tiny_soc.cpu
    compiled = get_compiled(netlist)
    simulator = ParallelPatternSimulator(netlist)
    rng = random.Random(7)
    controllable = (netlist.input_ports()
                    + LegacyCombinationalSimulator(netlist).state_nets)
    windows = [({net: rng.getrandbits(64) for net in controllable}, 64)
               for _ in range(4)]
    for model in ("stuck_at", "transition"):
        faults = [fault for fault in generate_fault_list(
                      netlist, model=model).faults()
                  if not fault.is_port_fault
                  and compiled.pin_ref(fault.site)[0] == "seq"
                  and compiled.pin_ref(fault.site)[3]]
        assert len(faults) > 1000
        assert all(resolve_site(compiled, fault) == ("inert",)
                   for fault in faults)
        assert simulator.run_windows(faults, windows) == set()
        podem = Podem(netlist, backtrack_limit=10)
        for fault in faults:
            assert podem.view.fault_refs(fault) == (None, -1, -1)
            assert podem.generate(fault).status is not PodemStatus.DETECTED
