"""The pluggable fault-model core: models, collapse, kernels, PODEM, API.

Covers the FaultModel registry and serialization grammars (with round-trip
property coverage for every registered model), the model-specific collapse
rules and their determinism, launch-on-capture transition detection in the
serial engine and the serial and pooled graders (identity included), the
two-time-frame PODEM search, and the fault_model plumbing through tie analysis, scan
analysis, Session sweeps, report serialization and the CLI.
"""

from __future__ import annotations

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.engine import AtpgEffort, StructuralUntestabilityEngine
from repro.atpg.podem import Podem, PodemStatus
from repro.atpg.tie_analysis import TieAnalysis
from repro.core.results import FlowConfig, OnlineUntestableReport
from repro.core.scan_analysis import identify_scan_untestable
from repro.faults.categories import FaultClass
from repro.faults.collapse import collapse_fault_list, equivalence_classes
from repro.faults.fault import SA0, SA1, StuckAtFault
from repro.faults.faultlist import FaultList, generate_fault_list
from repro.faults.models import (SLOW_TO_FALL, SLOW_TO_RISE, STUCK_AT,
                                 TRANSITION, InjectionSpec, TransitionFault,
                                 fault_model_names, get_fault_model, model_of,
                                 parse_fault, resolve_fault_model,
                                 resolve_injection)
from repro.manipulation.tie import tie_port
from repro.netlist.builder import NetlistBuilder
from repro.netlist.cells import LOGIC_0, LOGIC_1
from repro.runtime import get_pool
from repro.sbst.grading import FaultGrader
from repro.sbst.monitor import CapturedPatterns
from repro.simulation.fault_sim import FaultSimulator

from tests.conftest import build_and_or_circuit

#: Site strings shaped like real pin/port sites (no spaces; pins carry a /).
_SITES = st.one_of(
    st.from_regex(r"[a-z][a-z0-9_.]{0,12}/[A-Z][A-Z0-9]{0,3}",
                  fullmatch=True),
    st.from_regex(r"[a-z][a-z0-9_.\[\]]{0,14}", fullmatch=True),
)


# --------------------------------------------------------------------- #
# models, registry, serialization
# --------------------------------------------------------------------- #
class TestModelRegistry:
    def test_registered_models(self):
        assert fault_model_names() == ("stuck_at", "transition")
        assert get_fault_model("stuck_at") is STUCK_AT
        assert get_fault_model("transition") is TRANSITION

    def test_resolve_spellings(self):
        assert resolve_fault_model(None) is STUCK_AT
        assert resolve_fault_model("Transition ") is TRANSITION
        assert resolve_fault_model(TRANSITION) is TRANSITION

    def test_unknown_model_is_actionable(self):
        with pytest.raises(ValueError, match="stuck_at.*transition"):
            resolve_fault_model("sdf")

    def test_model_of_dispatches_on_type(self):
        assert model_of(StuckAtFault("u1/A", SA0)) is STUCK_AT
        assert model_of(TransitionFault("u1/A", SLOW_TO_RISE)) is TRANSITION
        with pytest.raises(TypeError):
            model_of("u1/A s-a-0")

    def test_injection_specs(self):
        assert resolve_injection(StuckAtFault("p", SA1)) == InjectionSpec(
            stuck_value=1, frames=1, init_value=None)
        assert resolve_injection(
            TransitionFault("p", SLOW_TO_RISE)) == InjectionSpec(
            stuck_value=0, frames=2, init_value=0)
        assert resolve_injection(
            TransitionFault("p", SLOW_TO_FALL)) == InjectionSpec(
            stuck_value=1, frames=2, init_value=1)


class TestTransitionFault:
    def test_str_and_site_helpers(self):
        fault = TransitionFault("core.u1/A", SLOW_TO_FALL)
        assert str(fault) == "core.u1/A stf"
        assert fault.instance_name == "core.u1"
        assert fault.pin_name == "A"
        assert fault.value == 1  # the late value
        port = TransitionFault("dbg_tck", SLOW_TO_RISE)
        assert port.is_port_fault and port.value == 0

    def test_invalid_polarity_rejected(self):
        with pytest.raises(ValueError, match="slow-to-rise"):
            TransitionFault("u1/A", "slow")


class TestParsing:
    def test_stuck_at_error_includes_grammar(self):
        with pytest.raises(ValueError) as err:
            StuckAtFault.parse("u1/A sa0")
        message = str(err.value)
        assert "'<site> s-a-0'" in message
        assert "<instance>/<PIN>" in message

    def test_transition_error_includes_grammar(self):
        with pytest.raises(ValueError) as err:
            TransitionFault.parse("u1/A slow-rise")
        message = str(err.value)
        assert "'<site> str'" in message and "slow-to-fall" in message

    def test_parse_fault_dispatches_by_grammar(self):
        assert parse_fault("u1/A s-a-0") == StuckAtFault("u1/A", SA0)
        assert parse_fault("u1/A stf") == TransitionFault("u1/A",
                                                          SLOW_TO_FALL)

    def test_parse_fault_error_lists_every_grammar(self):
        with pytest.raises(ValueError) as err:
            parse_fault("garbage")
        message = str(err.value)
        assert "stuck_at" in message and "transition" in message
        assert "s-a-0" in message and "str" in message

    @settings(max_examples=60, deadline=None)
    @given(site=_SITES, value=st.integers(min_value=0, max_value=1))
    def test_stuck_at_round_trip(self, site, value):
        fault = StuckAtFault(site, value)
        assert STUCK_AT.parse(STUCK_AT.format(fault)) == fault

    @settings(max_examples=60, deadline=None)
    @given(site=_SITES,
           polarity=st.sampled_from([SLOW_TO_RISE, SLOW_TO_FALL]))
    def test_transition_round_trip(self, site, polarity):
        fault = TransitionFault(site, polarity)
        assert TRANSITION.parse(TRANSITION.format(fault)) == fault

    @settings(max_examples=60, deadline=None)
    @given(site=_SITES, choice=st.integers(min_value=0, max_value=3))
    def test_parse_fault_round_trips_every_model(self, site, choice):
        fault = (StuckAtFault(site, choice % 2) if choice < 2 else
                 TransitionFault(site, (SLOW_TO_RISE, SLOW_TO_FALL)[choice % 2]))
        assert parse_fault(model_of(fault).format(fault)) == fault


# --------------------------------------------------------------------- #
# enumeration & collapse
# --------------------------------------------------------------------- #
class TestEnumeration:
    def test_transition_universe_matches_stuck_at_shape(self):
        netlist = build_and_or_circuit()
        stuck = generate_fault_list(netlist).faults()
        transition = generate_fault_list(netlist, model="transition").faults()
        assert len(transition) == len(stuck) == 26
        assert all(isinstance(f, TransitionFault) for f in transition)
        assert ({f.site for f in transition} == {f.site for f in stuck})

    def test_fault_list_round_trips_transition_classifications(self):
        netlist = build_and_or_circuit()
        faults = generate_fault_list(netlist, model=TRANSITION)
        target = faults.faults()[0]
        faults.classify(target, FaultClass.UT)
        restored = FaultList.from_lines(faults.to_lines())
        assert restored.get_class(target) is FaultClass.UT
        assert isinstance(restored.faults()[0], TransitionFault)


class TestModelCollapse:
    def test_equivalence_classes_differ_between_models(self):
        """The AND-gate controlling-value rule holds for stuck-at only."""
        netlist = build_and_or_circuit()
        stuck = equivalence_classes(
            netlist, generate_fault_list(netlist,
                                         include_ports=False).faults())
        transition = equivalence_classes(
            netlist, generate_fault_list(netlist, include_ports=False,
                                         model="transition").faults())

        def rep_of(classes):
            return {member: rep for rep, members in classes.items()
                    for member in members}

        stuck_rep = rep_of(stuck)
        assert (stuck_rep[StuckAtFault("and2_0/A", SA0)]
                == stuck_rep[StuckAtFault("and2_0/Y", SA0)])
        tr_rep = rep_of(transition)
        assert (tr_rep[TransitionFault("and2_0/A", SLOW_TO_RISE)]
                != tr_rep[TransitionFault("and2_0/Y", SLOW_TO_RISE)])
        # Different rules ⇒ different class counts on the same netlist.
        assert len(stuck) != len(transition)

    def test_inverter_swaps_transition_polarity(self):
        b = NetlistBuilder("m")
        a = b.add_input("a")
        y = b.add_output("y")
        b.inv(a, output=y)
        netlist = b.build()
        faults = generate_fault_list(netlist, include_ports=False,
                                     model="transition").faults()
        classes = equivalence_classes(netlist, faults)
        rep = {member: r for r, members in classes.items()
               for member in members}
        assert (rep[TransitionFault("inv_0/A", SLOW_TO_RISE)]
                == rep[TransitionFault("inv_0/Y", SLOW_TO_FALL)])
        assert (rep[TransitionFault("inv_0/A", SLOW_TO_RISE)]
                != rep[TransitionFault("inv_0/Y", SLOW_TO_RISE)])

    @pytest.mark.parametrize("model", ["stuck_at", "transition"])
    def test_collapsed_counts_deterministic_across_processes(self, model):
        """Same classes, representatives and order under different hash
        seeds (fresh interpreters)."""
        script = (
            "from tests.conftest import build_and_or_circuit\n"
            "from repro.faults.faultlist import generate_fault_list\n"
            "from repro.faults.collapse import collapse_fault_list\n"
            "netlist = build_and_or_circuit()\n"
            f"faults = generate_fault_list(netlist, model={model!r})\n"
            "collapsed = collapse_fault_list(netlist, faults)\n"
            "print('\\n'.join(collapsed.to_lines()))\n"
        )
        outputs = []
        for seed in ("0", "424242"):
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed})
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].strip()

    def test_collapse_reduces_transition_universe(self, tiny_soc):
        faults = generate_fault_list(tiny_soc.cpu, model="transition")
        collapsed = collapse_fault_list(tiny_soc.cpu, faults)
        assert 0 < len(collapsed) < len(faults)


# --------------------------------------------------------------------- #
# two-pattern detection kernels
# --------------------------------------------------------------------- #
def _random_patterns(netlist, n, seed=11):
    rng = random.Random(seed)
    ports = netlist.input_ports()
    return [{p: rng.choice((LOGIC_0, LOGIC_1)) for p in ports}
            for _ in range(n)]


def _captured(patterns):
    """The same cycles as a captured stream, for the graders."""
    nets = list(patterns[0])
    return CapturedPatterns(
        controllable_nets=nets,
        words={net: sum(1 << i for i, pattern in enumerate(patterns)
                        if pattern[net]) for net in nets},
        n_cycles=len(patterns))


class TestTwoPatternDetection:
    def _buffer_chain(self):
        b = NetlistBuilder("chain")
        a = b.add_input("a")
        y = b.add_output("y")
        b.buf(a, output=y)
        return b.build()

    def test_launch_on_capture_requires_initialization(self):
        netlist = self._buffer_chain()
        str_fault = TransitionFault("a", SLOW_TO_RISE)
        sim = FaultSimulator(netlist)
        rise = [{"a": 0}, {"a": 1}]       # 0 -> 1 launch pair
        result = sim.run([str_fault], rise)
        assert result.detected == {str_fault}
        assert result.detecting_pattern[str_fault] == 1
        # Without the initialization pattern the same capture value fails.
        assert not sim.run([str_fault], [{"a": 1}, {"a": 1}]).detected
        # The opposite polarity needs the opposite pair.
        stf_fault = TransitionFault("a", SLOW_TO_FALL)
        assert not sim.run([stf_fault], rise).detected
        assert sim.run([stf_fault], [{"a": 1}, {"a": 0}]).detected

    def test_first_pattern_never_captures(self):
        netlist = self._buffer_chain()
        fault = TransitionFault("a", SLOW_TO_RISE)
        result = FaultSimulator(netlist).run([fault], [{"a": 1}, {"a": 0},
                                                       {"a": 1}])
        assert result.detecting_pattern[fault] == 2

    def test_verdicts_independent_of_window_size(self):
        netlist = build_and_or_circuit()
        faults = generate_fault_list(netlist, model="transition").faults()
        patterns = _random_patterns(netlist, 30)
        wide = FaultSimulator(netlist, word_size=64).run(faults, patterns)
        narrow = FaultSimulator(netlist, word_size=1).run(faults, patterns)
        assert wide.detected == narrow.detected
        assert wide.detecting_pattern == narrow.detecting_pattern

    @pytest.mark.parametrize("pool", [(1, None), (2, None), (2, "spawn")],
                             ids=["serial", "process", "spawn"])
    @pytest.mark.parametrize("drop", [True, False])
    def test_sharded_transition_byte_identical(self, pool, drop):
        """Pooled transition grading over 8-pattern windows, on one
        worker, on the default two-worker process pool (fork where
        available) and on a spawn-started pool, against the serial grader
        and the three-valued serial engine with and without its fault
        dropping."""
        jobs, start_method = pool
        netlist = build_and_or_circuit()
        faults = generate_fault_list(netlist, model="transition").faults()
        patterns = _random_patterns(netlist, 40, seed=5)
        reference = FaultSimulator(netlist, word_size=8,
                                   drop_detected=drop).run(
            faults, patterns).detected
        serial = FaultGrader(netlist, word_size=8).grade(
            _captured(patterns), faults)
        pooled = FaultGrader(
            netlist, word_size=8, jobs=jobs,
            pool=get_pool(jobs, start_method)).grade(_captured(patterns),
                                                     faults)
        assert pooled == serial == reference
        assert reference

    def test_sharded_transition_identity_on_tiny_cpu(self, tiny_soc):
        faults = generate_fault_list(tiny_soc.cpu, model="transition").faults()
        sample = faults[:: max(1, len(faults) // 120)][:120]
        captured = _captured(_random_patterns(tiny_soc.cpu, 12, seed=2013))
        serial = FaultGrader(tiny_soc.cpu, word_size=8).grade(captured, sample)
        pooled = FaultGrader(tiny_soc.cpu, word_size=8,
                             jobs=3).grade(captured, sample)
        assert pooled == serial
        assert serial


class TestTransitionGrading:
    @pytest.fixture(scope="class")
    def tiny_captured(self, tiny_soc):
        from repro.sbst.monitor import ToggleMonitor
        from repro.sbst.program_gen import generate_sbst_suite

        programs = generate_sbst_suite(tiny_soc.config.cpu)
        return ToggleMonitor(tiny_soc.cpu).run_suite(programs)

    def test_grade_serial_vs_sharded_identical(self, tiny_soc, tiny_captured):
        from repro.sbst.grading import FaultGrader

        faults = generate_fault_list(tiny_soc.cpu, model="transition").faults()
        sample = faults[:: max(1, len(faults) // 150)][:150]
        serial = FaultGrader(tiny_soc.cpu).grade(tiny_captured, sample)
        sharded = FaultGrader(tiny_soc.cpu, jobs=2).grade(tiny_captured,
                                                          sample)
        assert sharded == serial

    def test_grade_word_size_invariant(self, tiny_soc, tiny_captured):
        from repro.sbst.grading import FaultGrader

        faults = generate_fault_list(tiny_soc.cpu, model="transition").faults()
        sample = faults[:: max(1, len(faults) // 60)][:60]
        wide = FaultGrader(tiny_soc.cpu, word_size=64).grade(tiny_captured,
                                                             sample)
        narrow = FaultGrader(tiny_soc.cpu, word_size=7).grade(tiny_captured,
                                                              sample)
        assert wide == narrow


# --------------------------------------------------------------------- #
# two-time-frame PODEM & classification
# --------------------------------------------------------------------- #
class TestTwoFramePodem:
    def test_detected_tests_are_consistent_pairs(self):
        netlist = build_and_or_circuit()
        podem = Podem(netlist)
        sim = FaultSimulator(netlist)
        faults = generate_fault_list(netlist, model="transition").faults()
        detected = 0
        for fault in faults:
            result = podem.generate(fault)
            if result.status is not PodemStatus.DETECTED:
                continue
            detected += 1
            # The (launch, capture) pair the search returns must detect the
            # fault in the fault simulator (X-padded patterns included).
            assert sim.detects(fault, result.pattern,
                               prev_pattern=result.init_pattern)
        assert detected > 0

    def test_tied_site_is_untestable_for_both_polarities(self):
        netlist = build_and_or_circuit()
        tie_port(netlist, "a", 1)
        podem = Podem(netlist)
        for polarity in (SLOW_TO_RISE, SLOW_TO_FALL):
            result = podem.generate(TransitionFault("a", polarity))
            assert result.status is PodemStatus.UNTESTABLE

    def test_launch_on_capture_state_consistency(self):
        """Capture-frame state assignments must equal the launch frame's
        next state."""
        b = NetlistBuilder("seq")
        clk = b.add_input("clk")
        d = b.add_input("d")
        q = b.dff(d, clk, name="ff0")
        y = b.add_output("y")
        b.buf(q, output=y)
        netlist = b.build()

        podem = Podem(netlist)
        fault = TransitionFault(f"{netlist.instance('ff0').pin('Q').name}",
                                SLOW_TO_RISE)
        result = podem.generate(fault)
        assert result.status is PodemStatus.DETECTED
        # Capture frame excites the site at 1, so the launch frame must
        # produce next-state 1 through D while holding Q at 0.
        assert result.pattern.get(q) == 1
        assert result.init_pattern.get("d") == 1

    def test_engine_full_effort_classifies_transition_universe(self):
        netlist = build_and_or_circuit()
        faults = generate_fault_list(netlist, model="transition").faults()
        report = StructuralUntestabilityEngine(
            netlist, effort=AtpgEffort.FULL).classify(faults)
        assert set(report.classifications) == set(faults)
        assert all(c in (FaultClass.DT, FaultClass.UU, FaultClass.AU)
                   for c in report.classifications.values())

    @pytest.mark.parametrize("effort", [AtpgEffort.TIE, AtpgEffort.RANDOM])
    def test_sharded_classification_identical(self, tiny_soc, effort):
        faults = generate_fault_list(tiny_soc.cpu, model="transition").faults()
        sample = faults[:: max(1, len(faults) // 80)][:80]
        serial = StructuralUntestabilityEngine(
            tiny_soc.cpu, effort=effort).classify(sample)
        sharded = StructuralUntestabilityEngine(
            tiny_soc.cpu, effort=effort, jobs=2).classify(sample)
        assert sharded.classifications == serial.classifications


class TestModelAwareTieAnalysis:
    def test_any_constant_blocks_both_transitions(self):
        netlist = build_and_or_circuit()
        tie_port(netlist, "c", 0)
        tie = TieAnalysis(netlist)
        for polarity in (SLOW_TO_RISE, SLOW_TO_FALL):
            assert tie.classify_fault(
                TransitionFault("c", polarity)) is FaultClass.UT
        # Stuck-at keeps its asymmetric rule on the same netlist.
        assert tie.classify_fault(StuckAtFault("c", SA0)) is FaultClass.UT
        assert tie.classify_fault(StuckAtFault("c", SA1)) is not FaultClass.UT


class TestModelAwareScanAnalysis:
    def test_scan_enable_contributes_both_polarities(self, tiny_soc):
        stuck = identify_scan_untestable(tiny_soc.cpu)
        transition = identify_scan_untestable(tiny_soc.cpu,
                                              model="transition")
        assert all(isinstance(f, TransitionFault)
                   for f in transition.untestable)
        # Same sites on the serial path; the held scan enable doubles.
        assert ({f.site for f in transition.serial_input_faults}
                == {f.site for f in stuck.serial_input_faults})
        assert (len(transition.scan_enable_faults)
                == 2 * len(stuck.scan_enable_faults))


# --------------------------------------------------------------------- #
# end-to-end plumbing
# --------------------------------------------------------------------- #
class TestFaultModelPlumbing:
    def test_session_sweep_over_model_axis(self):
        from repro.api import ScenarioGrid, Session

        grid = ScenarioGrid("tiny").axis("fault_model",
                                         ["stuck_at", "transition"])
        report = Session().sweep(grid)
        assert [r.label for r in report] == [
            "tiny[fault_model=stuck_at]", "tiny[fault_model=transition]"]
        models = [r.report.fault_model for r in report]
        assert models == ["stuck_at", "transition"]
        totals = [r.report.total_online_untestable for r in report]
        assert all(t > 0 for t in totals)
        tables = [r.report.to_table() for r in report]
        assert "stuck-at faults" in tables[0]
        assert "transition-delay faults" in tables[1]

    def test_grid_rejects_unknown_model(self):
        from repro.api import ScenarioGrid

        with pytest.raises(ValueError, match="unknown fault model"):
            ScenarioGrid("tiny").axis("fault_model", ["bogus"])

    def test_report_serialization_round_trips_transition(self):
        report = OnlineUntestableReport(
            netlist_name="n", total_faults=4, fault_model="transition")
        report.baseline_untestable = {TransitionFault("u1/A", SLOW_TO_RISE)}
        restored = OnlineUntestableReport.from_json(report.to_json())
        assert restored.fault_model == "transition"
        assert restored.baseline_untestable == report.baseline_untestable

    def test_legacy_reports_default_to_stuck_at(self):
        document = OnlineUntestableReport(
            netlist_name="n", total_faults=1).to_json_dict()
        document.pop("fault_model")
        # FULL-effort payloads once also carried per-category static
        # proof counts; the key is ignored on load.
        document["static_proof_counts"] = {"unobservable": 3}
        restored = OnlineUntestableReport.from_json_dict(document)
        assert restored.fault_model == "stuck_at"
        assert "static_proof_counts" not in restored.to_json_dict()

    def test_explicit_config_wins_over_session_default(self, tiny_soc):
        """A per-call RunOptions(fault_model="stuck_at") must not be
        overridden by the session's RunOptions(fault_model="transition")."""
        from repro.api import RunOptions, Session

        session = Session(options=RunOptions(fault_model="transition"))
        pinned = session.analyze(tiny_soc.cpu,
                                 options=RunOptions(fault_model="stuck_at"))
        assert pinned.fault_model == "stuck_at"
        defaulted = session.analyze(tiny_soc.cpu)
        assert defaulted.fault_model == "transition"
        # Flow switches in an explicit config leave the model alone.
        switched = session.analyze(tiny_soc.cpu,
                                   config=FlowConfig(run_scan=False))
        assert switched.fault_model == "transition"

    def test_grader_fault_model_default_universe(self, tiny_soc):
        from repro.sbst.grading import FaultGrader

        grader = FaultGrader(tiny_soc.cpu, fault_model="transition")
        assert grader.fault_model is TRANSITION

    def test_corpus_model_filter_reports_pinned_entries(self, tmp_path):
        """--fault-model filtering an --only selection must explain the
        model pinning, not claim the entry is unknown."""
        from repro.api.corpus import CorpusError, run_corpus

        with pytest.raises(CorpusError, match="pinned under other models"):
            run_corpus("benchmarks/corpus", only=["tiny_full"],
                       fault_model="transition")
        with pytest.raises(CorpusError, match="unknown corpus entries"):
            run_corpus("benchmarks/corpus", only=["nope"],
                       fault_model="transition")

    def test_cache_keys_split_by_model(self, tiny_soc):
        from repro.api import RunOptions, Session

        session = Session()
        stuck = session.analyze(tiny_soc.cpu)
        transition = session.analyze(
            tiny_soc.cpu, options=RunOptions(fault_model="transition"))
        assert stuck.total_faults == transition.total_faults
        assert (stuck.total_online_untestable
                != transition.total_online_untestable)
        # Re-analysis under either model replays from cache.
        before = session.cache_stats["misses"]
        session.analyze(tiny_soc.cpu,
                        options=RunOptions(fault_model="transition"))
        assert session.cache_stats["misses"] == before


class TestCli:
    def test_analyze_fault_model_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", "tiny",
             "--fault-model", "transition", "--json"],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        import json

        document = json.loads(proc.stdout)
        assert document["fault_model"] == "transition"
        assert document["total_online_untestable"] > 0

    def test_sweep_fault_model_axis(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--base", "tiny",
             "--axis", "fault_model=stuck_at,transition", "--quiet",
             "--csv"],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert "fault_model=stuck_at" in proc.stdout
        assert "fault_model=transition" in proc.stdout
