"""The pooled fault-population engines: knobs, pickling, identity.

The contract under test is strict: on one worker or two, under both pool
start methods and every fault-dropping mode, the pooled engines must
reproduce the serial reference *exactly* — graded detected sets,
classification dicts and graded coverage are compared for equality, not
similarity.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.atpg.engine import StructuralUntestabilityEngine
from repro.faults.faultlist import generate_fault_list
from repro.netlist.compiled import get_compiled, netlist_signature
from repro.runtime import (MONSTER_RATIO, build_chunks, cone_representative,
                           get_pool)
from repro.sbst.grading import FaultGrader
from repro.sbst.monitor import CapturedPatterns, ToggleMonitor, pattern_windows
from repro.sbst.program_gen import generate_sbst_suite
from repro.simulation.kernels import resolve_site
from repro.simulation.sharded import resolve_jobs, sharded_mission_grade
from repro.simulation.simulator import CombinationalSimulator

#: The pools every identity test runs on, as (jobs, start method):
#: one worker, the default process pool for two workers (fork where
#: available), and a spawn-started pool that re-installs every job over
#: the pipe.
POOLS = {"serial": (1, None), "process": (2, None), "spawn": (2, "spawn")}


def _pool(mode):
    jobs, start_method = POOLS[mode]
    return jobs, get_pool(jobs, start_method)


@pytest.fixture(scope="module")
def tiny_cpu(tiny_soc):
    return tiny_soc.cpu


@pytest.fixture(scope="module")
def tiny_faults(tiny_cpu):
    return generate_fault_list(tiny_cpu).faults()


@pytest.fixture(scope="module")
def tiny_captured_random(tiny_cpu):
    """130 deterministic random mission cycles over the controllable nets
    (three pattern windows)."""
    rng = random.Random(2013)
    controllable = [p for p in tiny_cpu.input_ports()
                    if tiny_cpu.net(p).tied is None]
    controllable += CombinationalSimulator(tiny_cpu).state_nets
    return CapturedPatterns(
        controllable_nets=controllable,
        words={net: rng.getrandbits(130) for net in controllable},
        n_cycles=130)


# --------------------------------------------------------------------- #
# knob resolution
# --------------------------------------------------------------------- #
class TestKnobs:
    def test_resolve_jobs(self, tiny_cpu):
        import os
        cpus = os.cpu_count() or 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(None) >= 1
        # Oversubscription is capped at the machine (extra workers only
        # contend); cap=False returns the raw request for routing checks.
        assert resolve_jobs(4, cap=False) == 4
        assert resolve_jobs(4) == min(4, cpus)
        assert resolve_jobs(cpus + 1) == cpus
        for bad in (0, -3):
            with pytest.raises(ValueError, match="jobs must be >= 1"):
                resolve_jobs(bad)
        # Every engine entry point runs the same check: a bad worker
        # count fails loudly instead of quietly running serial.
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            FaultGrader(tiny_cpu, jobs=-3)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            StructuralUntestabilityEngine(tiny_cpu, jobs=0)

    def test_resolve_jobs_warns_once_on_oversubscription(self):
        import os
        import warnings
        from repro.simulation.sharded import (
            _reset_oversubscription_warning)
        cpus = os.cpu_count() or 1
        _reset_oversubscription_warning()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resolve_jobs(cpus + 3)
            resolve_jobs(cpus + 3)
        oversub = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)
                   and "exceeds os.cpu_count()" in str(w.message)]
        assert len(oversub) == 1
        _reset_oversubscription_warning()


# --------------------------------------------------------------------- #
# cone-affine chunking
# --------------------------------------------------------------------- #
class TestPartitioning:
    def test_faults_sharing_a_cone_share_a_shard(self, tiny_cpu,
                                                 tiny_faults):
        """A cone group that fits one chunk is never split; only monster
        cones (run as singletons) and oversized groups span chunks."""
        compiled = get_compiled(tiny_cpu)
        sizes = compiled.fanout_cone_sizes()
        groups = {}
        for position, fault in enumerate(tiny_faults):
            rep = cone_representative(compiled,
                                      resolve_site(compiled, fault))
            groups.setdefault(rep, []).append(position)
        cost = {rep: (sizes[rep] + 1 if rep >= 0 else 1) for rep in groups}
        mean = sum(cost[rep] * len(members)
                   for rep, members in groups.items()) / len(tiny_faults)
        chunks = build_chunks(tiny_cpu, tiny_faults, 16)
        home = {p: index for index, chunk in enumerate(chunks) for p in chunk}
        whole = 0
        for rep, members in groups.items():
            if len(members) > 16 or cost[rep] >= MONSTER_RATIO * mean:
                continue
            assert len({home[p] for p in members}) == 1
            whole += 1
        assert whole

    def test_cone_size_table_matches_memoised_cones(self, tiny_cpu):
        compiled = get_compiled(tiny_cpu)
        sizes = compiled.fanout_cone_sizes()
        for nid in range(0, compiled.n_nets, 97):  # deterministic sample
            assert sizes[nid] == len(compiled.fanout_ops(nid))


# --------------------------------------------------------------------- #
# pooled word fault simulation: identical to the serial window loop
# --------------------------------------------------------------------- #
class TestShardedFaultSimulator:
    """``sharded_mission_grade`` on random multi-window cycles, with and
    without fault dropping, against the serial ``run_windows``."""

    @pytest.mark.parametrize("drop", [True, False])
    @pytest.mark.parametrize("mode", POOLS)
    def test_identical_to_serial(self, tiny_cpu, tiny_faults,
                                 tiny_captured_random, mode, drop):
        sample = tiny_faults[::7]
        grader = FaultGrader(tiny_cpu)
        reference = grader.simulator.run_windows(
            sample, pattern_windows(tiny_captured_random, 64),
            drop_detected=drop)
        jobs, pool = _pool(mode)
        result = sharded_mission_grade(
            tiny_cpu, sample, tiny_captured_random,
            observation_nets=grader.simulator.observation_nets,
            drop_detected=drop, jobs=jobs, pool=pool)
        assert result == reference
        assert reference and len(reference) < len(sample)


# --------------------------------------------------------------------- #
# sharded classification
# --------------------------------------------------------------------- #
class TestShardedClassify:
    @pytest.mark.parametrize("effort", ["tie", "random"])
    def test_identical_classifications(self, tiny_cpu, tiny_faults, effort):
        reference = StructuralUntestabilityEngine(
            tiny_cpu, effort=effort).classify(tiny_faults)
        sharded = StructuralUntestabilityEngine(
            tiny_cpu, effort=effort, jobs=2).classify(tiny_faults)
        assert sharded.classifications == reference.classifications
        assert sharded.effort == reference.effort

    def test_engine_jobs_knob_delegates(self, tiny_cpu, tiny_faults):
        reference = StructuralUntestabilityEngine(tiny_cpu).classify(
            tiny_faults)
        engine = StructuralUntestabilityEngine(tiny_cpu, jobs=2)
        assert engine.classify(tiny_faults).classifications == \
            reference.classifications


# --------------------------------------------------------------------- #
# sharded mission-mode fault grading
# --------------------------------------------------------------------- #
class TestShardedFaultGrading:
    @pytest.fixture(scope="class")
    def tiny_captured(self, tiny_soc):
        programs = generate_sbst_suite(tiny_soc.config.cpu)
        return ToggleMonitor(tiny_soc.cpu).run_suite(programs)

    @pytest.mark.parametrize("mode", POOLS)
    def test_grade_identical_to_serial(self, tiny_cpu, tiny_captured, mode):
        serial = FaultGrader(tiny_cpu).grade(tiny_captured)
        jobs, pool = _pool(mode)
        sharded = FaultGrader(tiny_cpu, jobs=jobs,
                              pool=pool).grade(tiny_captured)
        assert sharded == serial

    def test_compare_with_pruning_identical(self, tiny_cpu, tiny_captured,
                                            tiny_flow_report):
        pruned = tiny_flow_report.online_untestable
        serial = FaultGrader(tiny_cpu).compare_with_pruning(
            tiny_captured, pruned)
        sharded = FaultGrader(tiny_cpu, jobs=2).compare_with_pruning(
            tiny_captured, pruned)
        assert (serial.total_faults, serial.detected, serial.pruned,
                serial.detected_after_pruning) == \
               (sharded.total_faults, sharded.detected, sharded.pruned,
                sharded.detected_after_pruning)


class TestGradePlanMemo:
    """A repeat grade of equal inputs reuses its chunk plan and job key."""

    @pytest.fixture
    def counted(self, monkeypatch):
        import repro.runtime

        calls = {"build_chunks": 0, "content_key": 0}
        for name in calls:
            original = getattr(repro.runtime, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(repro.runtime, name, counting)
        return calls

    @staticmethod
    def _copy(captured, flip=None):
        words = dict(captured.words)
        if flip is not None:
            words[flip] ^= 1
        return CapturedPatterns(list(captured.controllable_nets), words,
                                captured.n_cycles)

    def test_equal_inputs_rebuild_nothing(self, tiny_cpu, tiny_faults,
                                          tiny_captured_random, counted):
        pool = get_pool(1)
        faults = tiny_faults[3::11]
        grader = FaultGrader(tiny_cpu, pool=pool)
        first = grader.grade(tiny_captured_random, faults)
        assert counted == {"build_chunks": 1, "content_key": 1}
        hits = pool.stats["install_hits"]
        # Equal content in new objects: no chunking, no pickled job key,
        # and the installed job is found warm.
        again = grader.grade(self._copy(tiny_captured_random), list(faults))
        assert counted == {"build_chunks": 1, "content_key": 1}
        assert pool.stats["install_hits"] == hits + 1
        assert again == first == FaultGrader(tiny_cpu).grade(
            tiny_captured_random, faults)

    def test_other_faults_or_patterns_get_a_fresh_job(
            self, tiny_cpu, tiny_faults, tiny_captured_random, counted):
        pool = get_pool(1)
        faults = tiny_faults[5::13]
        grader = FaultGrader(tiny_cpu, pool=pool)
        grader.grade(tiny_captured_random, faults)
        installs = pool.stats["installs"]
        flipped = self._copy(tiny_captured_random,
                             flip=tiny_captured_random.controllable_nets[0])
        for patterns, subset in ((tiny_captured_random, faults[1:]),
                                 (flipped, faults)):
            graded = grader.grade(patterns, subset)
            assert graded == FaultGrader(tiny_cpu).grade(patterns, subset)
        assert counted == {"build_chunks": 3, "content_key": 3}
        assert pool.stats["installs"] == installs + 2


# --------------------------------------------------------------------- #
# the pickle path spawn-started pool workers depend on
# --------------------------------------------------------------------- #
class TestNetlistPickling:
    def test_round_trip_preserves_structure(self, tiny_cpu):
        clone = pickle.loads(pickle.dumps(tiny_cpu))
        assert netlist_signature(clone) == netlist_signature(tiny_cpu)
        assert list(clone.nets) == list(tiny_cpu.nets)
        assert clone.ports == tiny_cpu.ports
        assert clone.unobservable_ports == tiny_cpu.unobservable_ports
        assert sorted(clone.annotations) == sorted(tiny_cpu.annotations)

    def test_round_trip_preserves_ties_and_cells(self, tiny_cpu):
        clone = pickle.loads(pickle.dumps(tiny_cpu))
        for name, net in tiny_cpu.nets.items():
            assert clone.nets[name].tied == net.tied
        some = next(iter(tiny_cpu.instances.values()))
        assert clone.instances[some.name].cell is some.cell  # singleton cell


# --------------------------------------------------------------------- #
# the install contract: jobs must survive pickling
# --------------------------------------------------------------------- #
class TestJobPickling:
    """The pool installs every job by pickle; a pickled-and-rebuilt job
    must compute identical verdicts."""

    def test_word_grade_job_round_trip(self, tiny_cpu, tiny_faults,
                                       tiny_captured_random):
        from repro.simulation.sharded import _WordGradeJob
        from repro.simulation.simulator import observation_net_names

        faults = tuple(tiny_faults[:300])
        job = _WordGradeJob(
            tiny_cpu, faults, frozenset(observation_net_names(tiny_cpu)),
            pattern_windows(tiny_captured_random, 64))
        job.prepare()
        clone = pickle.loads(pickle.dumps(job))
        assert clone._compiled is None  # runtime state stays behind
        detected = 0
        for positions in build_chunks(tiny_cpu, faults, 100):
            for drop in (True, False):
                task = (positions, drop)
                assert clone.run_chunk(task) == job.run_chunk(task)
            detected += len(job.run_chunk((positions, True)))
        assert detected

    def test_classify_job_round_trip(self, tiny_cpu, tiny_faults):
        from repro.atpg.engine import AtpgEffort, DetectionPhases

        job = DetectionPhases(tiny_cpu, AtpgEffort.RANDOM, 64, 200, 2013,
                              True, None)
        clone = pickle.loads(pickle.dumps(job))
        for chunk in (tuple(tiny_faults[:200]), tuple(tiny_faults[200:400])):
            ours = job.run_faults(chunk)
            theirs = clone.run_faults(chunk)
            assert ours[0] == theirs[0]  # identical classifications
            assert ours[0]  # the random phase really classified faults


class TestShardedClassifySchedulesTieOnce:
    def test_tie_effort_spawns_no_workers(self, tiny_cpu, tiny_faults,
                                          monkeypatch):
        """At TIE effort the global fixpoint runs once in the caller and
        nothing is farmed out — pooled classify must cost serial time."""
        from repro.runtime import WorkerPool

        def boom(*args, **kwargs):
            raise AssertionError("no worker pool expected at TIE effort")

        monkeypatch.setattr("repro.runtime.get_pool", boom)
        monkeypatch.setattr(WorkerPool, "_ensure_started", boom)
        reference = StructuralUntestabilityEngine(tiny_cpu).classify(
            tiny_faults)
        report = StructuralUntestabilityEngine(
            tiny_cpu, effort="tie", jobs=4).classify(tiny_faults)
        assert report.classifications == reference.classifications
