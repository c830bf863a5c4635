"""Tests for the compiled netlist IR and its signature-keyed build cache."""

from __future__ import annotations

import pytest

import repro
from repro.manipulation.tie import tie_net
from repro.netlist.builder import NetlistBuilder
from repro.netlist.cells import LOGIC_0, LOGIC_1, LOGIC_X
from repro.netlist.compiled import (compile_netlist, compile_stats,
                                    get_compiled, reset_compile_stats)
from repro.netlist.traversal import topological_instances
from repro.simulation.sequential import SequentialSimulator


@pytest.fixture
def small_circuit():
    """y = (a & b) | c with a DFF capturing y."""
    b = NetlistBuilder("compiled_demo")
    a = b.add_input("a")
    bb = b.add_input("b")
    c = b.add_input("c")
    n_and = b.gate("AND2", a, bb, name="u_and")
    n_or = b.gate("OR2", n_and, c, name="u_or")
    b.gate("DFF", n_or, b.add_input("ck"), name="u_ff")
    b.buf(n_or, output=b.add_output("y"), name="u_buf")
    return b.build()


class TestCompiledStructure:
    def test_net_ids_are_dense_and_invertible(self, small_circuit):
        compiled = compile_netlist(small_circuit)
        assert compiled.n_nets == len(small_circuit.nets)
        assert sorted(compiled.net_id.values()) == list(range(compiled.n_nets))
        for name, nid in compiled.net_id.items():
            assert compiled.net_names[nid] == name

    def test_ops_are_levelized(self, small_circuit):
        compiled = compile_netlist(small_circuit)
        assert len(compiled.instances) == len(
            topological_instances(small_circuit))
        # Every fanin driven by another op must come from a lower level.
        for i, fanin in enumerate(compiled.op_fanin):
            for nid in fanin:
                if nid >= 0 and compiled.net_driver_op[nid] >= 0:
                    driver = compiled.net_driver_op[nid]
                    assert compiled.op_level[driver] < compiled.op_level[i]
                    assert driver < i  # topological index order

    def test_connectivity_tables(self, small_circuit):
        compiled = compile_netlist(small_circuit)
        and_op = compiled.op_of_instance["u_and"]
        or_op = compiled.op_of_instance["u_or"]
        and_out = compiled.op_fanout[and_op][0]
        assert (or_op, 0) in compiled.net_load_ops[and_out]
        # The OR output feeds both the DFF (sequential) and the output buffer.
        or_out = compiled.op_fanout[or_op][0]
        seq_loads = compiled.net_load_seqs[or_out]
        assert seq_loads and seq_loads[0][0] == compiled.seq_of_instance["u_ff"]

    def test_pin_ref_round_trip(self, small_circuit):
        compiled = compile_netlist(small_circuit)
        kind, index, pos, is_input = compiled.pin_ref("u_or/A")
        assert (kind, is_input) == ("op", True)
        assert compiled.op_cell[index].inputs[pos] == "A"
        kind, index, pos, is_input = compiled.pin_ref("u_ff/D")
        assert (kind, is_input) == ("seq", True)
        with pytest.raises(KeyError):
            compiled.pin_ref("nonexistent/A")
        with pytest.raises(ValueError):
            compiled.pin_ref("not_a_pin_name")

    def test_fanout_cones(self, small_circuit):
        compiled = compile_netlist(small_circuit)
        a = compiled.net_id["a"]
        cone = compiled.fanout_ops(a)
        assert compiled.op_of_instance["u_and"] in cone
        assert compiled.op_of_instance["u_or"] in cone
        assert list(cone) == sorted(cone)  # topological order
        nets = compiled.fanout_nets(a)
        assert compiled.net_id["y"] in nets


class TestCompileCache:
    def test_object_cache_hit(self, small_circuit):
        reset_compile_stats(clear_cache=True)
        first = get_compiled(small_circuit)
        second = get_compiled(small_circuit)
        assert first is second
        stats = compile_stats()
        assert stats["builds"] == 1
        assert stats["object_hits"] >= 1
        assert stats["kernel"] == "int"

    def test_structural_clone_shares_one_build(self, small_circuit):
        reset_compile_stats(clear_cache=True)
        compiled = get_compiled(small_circuit)
        clone = small_circuit.clone()
        assert get_compiled(clone) is compiled
        stats = compile_stats()
        assert stats["builds"] == 1
        assert stats["signature_hits"] == 1

    def test_mutation_invalidates(self, small_circuit):
        reset_compile_stats(clear_cache=True)
        sim = SequentialSimulator(small_circuit)
        pattern = {"a": LOGIC_1, "b": LOGIC_1, "c": LOGIC_0}
        assert sim.step(pattern)["y"] == LOGIC_1
        # Tie the OR output: the same simulator must honour the new constant
        # (ties are applied directly on the graph by the manipulation step).
        tied_net = small_circuit.instance("u_or").pin("Y").net.name
        tie_net(small_circuit, tied_net, LOGIC_0)
        assert sim.step(pattern)["y"] == LOGIC_0
        assert compile_stats()["builds"] == 2

    def test_structural_edit_invalidates(self, small_circuit):
        reset_compile_stats(clear_cache=True)
        compiled = get_compiled(small_circuit)
        small_circuit.add_instance("u_extra", "INV",
                                   {"A": "a", "Y": "extra_out"})
        recompiled = get_compiled(small_circuit)
        assert recompiled is not compiled
        assert "u_extra" in recompiled.op_of_instance

    def test_session_sweep_compiles_once_per_signature(self):
        """The scenarios of an effort-only sweep share the session's one
        design, so a second scenario compiles nothing: on a cleared cache
        a two-scenario sweep builds exactly as many netlists as a
        one-scenario sweep."""
        def sweep(session, efforts):
            grid = repro.ScenarioGrid("tiny").axis("effort", efforts)
            report = session.sweep(grid)
            assert len(report.results) == len(efforts)
            assert all(result.ok for result in report.results)

        reset_compile_stats(clear_cache=True)
        sweep(repro.Session(), ["tie"])
        one_scenario = compile_stats()["builds"]
        reset_compile_stats(clear_cache=True)
        session = repro.Session()
        sweep(session, ["tie", "tie"])
        # One build for the base netlist; the flow's manipulated clones
        # (debug-tied, observe-floated, ...) have their own signatures.
        assert 1 <= one_scenario <= 5
        assert compile_stats()["builds"] == one_scenario
        # Re-sweeping must not compile anything new.
        sweep(session, ["tie", "tie"])
        assert compile_stats()["builds"] == one_scenario


class TestCompiledSemantics:
    def test_evaluate_matches_legacy_reference(self, small_circuit):
        """The compiled plane sweep, all 27 three-valued patterns in one
        window, against the object-graph walk."""
        from tests.legacy_sim import (LegacyCombinationalSimulator,
                                      compiled_sweep)

        legacy = LegacyCombinationalSimulator(small_circuit)
        window = [{"a": a, "b": b, "c": c}
                  for a in (LOGIC_0, LOGIC_1, LOGIC_X)
                  for b in (LOGIC_0, LOGIC_1, LOGIC_X)
                  for c in (LOGIC_0, LOGIC_1, LOGIC_X)]
        assert compiled_sweep(small_circuit, window) == [
            legacy.evaluate(pattern) for pattern in window]

    def test_state_nets_match_sequential_outputs(self, small_circuit):
        compiled = get_compiled(small_circuit)
        expected = [pin.net.name
                    for inst in small_circuit.sequential_instances()
                    for pin in inst.output_pins() if pin.net is not None]
        assert [compiled.net_names[nid]
                for nid in compiled.state_net_ids] == expected
