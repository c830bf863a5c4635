"""ATPG portfolio tests: backend registry, cross-backend byte-identity,
escalation and dynamic pattern compaction.

The portfolio's contract is brutal on purpose: classification verdicts are
*backend-independent* wherever a search completes, and sharded execution
(any backend, any job count, either pool start method) must reproduce the
serial reference byte for byte.  These tests pin that contract on the four static-analysis
reference circuits for both fault models.
"""

from __future__ import annotations

import pytest

from tests.conftest import (build_and_or_circuit, build_constant_dff_circuit,
                            build_debug_cell_circuit,
                            build_mux_scan_cell_circuit,
                            build_small_adder_circuit)
from repro.atpg.engine import (AtpgEffort, StructuralUntestabilityEngine,
                               run_detection_phases)
from repro.atpg.podem import Podem
from repro.atpg.portfolio import (ATPG_BACKENDS, DEFAULT_ATPG_BACKEND,
                                  atpg_backend_names, compact_patterns,
                                  resolve_atpg_backend)
from repro.faults.categories import FaultClass
from repro.faults.faultlist import generate_fault_list
from repro.simulation.parallel import ParallelPatternSimulator
from repro.runtime import get_pool

#: The four reference circuits the static-analysis layer is pinned on.
REFERENCE_CIRCUITS = (
    ("and_or", build_and_or_circuit),
    ("scan_cell", build_mux_scan_cell_circuit),
    ("debug_cell", build_debug_cell_circuit),
    ("constant_dff", build_constant_dff_circuit),
)

FAULT_MODELS = ("stuck_at", "transition")


def classify_essence(report):
    """The byte-comparable core of an UntestabilityReport: every per-fault
    verdict, keyed by the fault's stable text form."""
    return {str(f): c.value for f, c in report.classifications.items()}


def aborted(report):
    return set(report.with_class(FaultClass.AU))


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_builtin_backends_registered(self):
        assert atpg_backend_names() == ("podem", "dalg")

    def test_resolve_default(self):
        assert resolve_atpg_backend(None).name == DEFAULT_ATPG_BACKEND

    def test_resolve_unknown_spells_accepted_values(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_atpg_backend("fan")
        message = str(excinfo.value)
        assert "unknown ATPG backend" in message
        for name in atpg_backend_names():
            assert name in message

    def test_backends_describe_themselves(self):
        for name in atpg_backend_names():
            backend = ATPG_BACKENDS[name]
            assert backend.name == name
            assert backend.description


# --------------------------------------------------------------------- #
# per-fault determinism
# --------------------------------------------------------------------- #
class TestPerFaultDeterminism:
    @staticmethod
    def result_stream(backend, netlist, faults):
        """Primary and escalated result per fault, on a budget starved
        enough that the escalation tier runs."""
        run = ATPG_BACKENDS[backend].start(netlist, backtrack_limit=1)
        return [(run.generate(f), run.escalate(f)) for f in faults]

    @pytest.mark.parametrize("backend", ["podem", "dalg"])
    def test_stream_is_batch_order_independent(self, backend):
        """A fault's result never depends on which other faults ran before
        it — the property that makes sharded classification
        byte-identical to serial."""
        netlist = build_small_adder_circuit()
        faults = generate_fault_list(netlist).faults()
        forward = dict(zip(map(str, faults),
                           self.result_stream(backend, netlist, faults)))
        backward = dict(zip(
            map(str, reversed(faults)),
            self.result_stream(backend, netlist, list(reversed(faults)))))
        assert forward == backward


# --------------------------------------------------------------------- #
# cross-backend classification byte-identity
# --------------------------------------------------------------------- #
class TestCrossBackendIdentity:
    @pytest.mark.parametrize("model", FAULT_MODELS)
    @pytest.mark.parametrize("name,builder", REFERENCE_CIRCUITS)
    def test_backends_match_serial_podem_reference(self, name, builder,
                                                  model):
        netlist = builder()
        faults = generate_fault_list(netlist, model=model).faults()

        def run(atpg_backend):
            engine = StructuralUntestabilityEngine(
                netlist, effort=AtpgEffort.FULL, random_patterns=16,
                backtrack_limit=64, atpg_backend=atpg_backend)
            return classify_essence(engine.classify(faults))

        assert run("dalg") == run("podem")

    def test_dalg_verdicts_match_podem_per_fault(self):
        netlist = build_small_adder_circuit()
        faults = generate_fault_list(netlist).faults()
        podem = Podem(netlist, backtrack_limit=2000)
        dalg = ATPG_BACKENDS["dalg"].start(netlist, backtrack_limit=2000)
        for fault in faults:
            expected = podem.generate(fault)
            got = dalg.generate(fault)
            assert got.status == expected.status, str(fault)


# --------------------------------------------------------------------- #
# escalation (dalg backend turns AU into proven verdicts)
# --------------------------------------------------------------------- #
class TestEscalation:
    def test_dalg_escalation_resolves_aborts(self):
        netlist = build_small_adder_circuit()
        faults = generate_fault_list(netlist).faults()
        # A starvation-level budget leaves PODEM with an abort frontier.
        starved = StructuralUntestabilityEngine(
            netlist, effort=AtpgEffort.FULL, random_patterns=0,
            backtrack_limit=1, static_learning=False,
            atpg_backend="podem").classify(faults)
        escalated = StructuralUntestabilityEngine(
            netlist, effort=AtpgEffort.FULL, random_patterns=0,
            backtrack_limit=1, static_learning=False,
            atpg_backend="dalg").classify(faults)
        assert len(aborted(escalated)) < len(aborted(starved))
        # Escalation only ever *proves*: it may move AU faults into the
        # untestable or detected buckets, never invent new aborts.
        assert aborted(escalated) <= aborted(starved)
        assert set(starved.untestable) <= set(escalated.untestable)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_escalation_identical_serial_vs_sharded(self, start_method):
        """One worker vs two, under both pool start methods, with the
        merged abort frontier escalated in a second round."""
        netlist = build_small_adder_circuit()
        faults = generate_fault_list(netlist).faults()
        kwargs = dict(effort=AtpgEffort.FULL, random_patterns=0,
                      backtrack_limit=1, static_learning=False,
                      atpg_backend="dalg")
        serial = StructuralUntestabilityEngine(
            netlist, pool=get_pool(1, start_method), **kwargs).classify(faults)
        sharded = StructuralUntestabilityEngine(
            netlist, pool=get_pool(2, start_method), **kwargs).classify(faults)
        assert serial.stats["escalated"]  # the second round had work
        assert classify_essence(sharded) == classify_essence(serial)
        assert sharded.patterns == serial.patterns
        assert sharded.compaction == serial.compaction


# --------------------------------------------------------------------- #
# dynamic pattern compaction
# --------------------------------------------------------------------- #
class TestCompaction:
    def engine_patterns(self, netlist, faults):
        """The raw (fault, pattern, init_pattern) stream of the search
        phase, in canonical fault order."""
        classifications, _, _, patterns = run_detection_phases(
            netlist, faults, effort=AtpgEffort.FULL, random_patterns=0,
            backtrack_limit=2000, static_learning=False)
        order = {f: i for i, f in enumerate(faults)}
        patterns.sort(key=lambda entry: order[entry[0]])
        return patterns

    def detected_sets(self, netlist, faults, entries):
        """Fault set detected by a list of pattern dicts (report layout),
        0-filled at the unassigned controllable points exactly like the
        compaction simulator."""
        from repro.atpg.portfolio import _controllable_nets

        sim = ParallelPatternSimulator(netlist)
        controllable = _controllable_nets(netlist)
        detected = set()
        for entry in entries:
            pattern = entry["pattern"]
            init = entry.get("init_pattern")
            if init:
                cubes = {net: ((init.get(net, 0) & 1)
                               | ((pattern.get(net, 0) & 1) << 1))
                         for net in controllable}
                width = 2
            else:
                cubes = {net: pattern.get(net, 0) & 1
                         for net in controllable}
                width = 1
            detected |= sim.detected_faults(faults, cubes, width)
        return detected

    @pytest.mark.parametrize("model", FAULT_MODELS)
    def test_compacted_patterns_keep_detected_fault_set(self, model):
        netlist = build_small_adder_circuit()
        faults = generate_fault_list(netlist, model=model).faults()
        raw = self.engine_patterns(netlist, faults)
        if not raw:
            pytest.skip("no ATPG patterns generated for this model")
        compacted, trace = compact_patterns(netlist, raw)
        # Compaction's contract is stated over the faults the search
        # credited: every one of them stays detected by the compacted set.
        credited = [f for f, _, _ in raw]
        original = self.detected_sets(
            netlist, credited,
            [{"pattern": p, "init_pattern": i} for _, p, i in raw])
        kept = self.detected_sets(netlist, credited, compacted)
        assert kept == original == set(credited)
        assert trace["generated"] == len(raw)
        assert trace["kept"] == len(compacted)
        assert (trace["kept"] + trace["dropped"] + trace["merged"]
                == trace["generated"])

    def test_compaction_reduces_pattern_count(self):
        netlist = build_small_adder_circuit()
        faults = generate_fault_list(netlist).faults()
        raw = self.engine_patterns(netlist, faults)
        compacted, trace = compact_patterns(netlist, raw)
        assert 0 < len(compacted) < len(raw)
        # Re-ordered so coverage rises fastest: kept entries are sorted by
        # detection count, descending.
        counts = [entry["detects"] for entry in compacted]
        assert counts == sorted(counts, reverse=True)

    def test_report_records_compaction_trace(self):
        netlist = build_small_adder_circuit()
        faults = generate_fault_list(netlist).faults()
        report = StructuralUntestabilityEngine(
            netlist, effort=AtpgEffort.FULL, random_patterns=0,
            backtrack_limit=2000).classify(faults)
        assert report.compaction["generated"] >= report.compaction["kept"]
        assert len(report.patterns) == report.compaction["kept"]
        for entry in report.patterns:
            assert entry["faults"]
            assert entry["detects"] == len(entry["faults"])
