"""The persistent warm worker-pool runtime (:mod:`repro.runtime`).

Three contracts under test:

* **Byte-identity under any steal order.**  The pooled engines must
  reproduce the serial reference exactly — graded detected sets and
  classification dicts — no matter which worker steals which chunk.  Hypothesis sweeps the deterministic
  jitter seed (per-task delays that permute completion order) and the
  chunk granularity, across both fault models.
* **Warm re-use.**  Installing job state twice under one content key must
  hit the worker-side cache, and the warm setup path must be dramatically
  cheaper than the cold install.
* **Degradation.**  ``kill -9`` of a worker mid-round must requeue its
  in-flight chunks onto the survivors, spawn a replacement and count a
  ``worker_restarts`` — never hang, never lose or duplicate a result.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults.faultlist import generate_fault_list
from repro.netlist.compiled import get_compiled
from repro.runtime import (DEFAULT_JOB_CACHE, MONSTER_RATIO,
                           PoolClosedError, WorkerPool, WorkerTaskError,
                           build_chunks, cone_representative, content_key,
                           default_chunk_size, get_pool, pool_stats,
                           shutdown_pools)
from repro.sbst import FaultGrader
from repro.sbst.monitor import CapturedPatterns
from repro.simulation.kernels import resolve_site
from repro.simulation.simulator import CombinationalSimulator

# These tests pin jobs=2 to exercise two genuine workers even on boxes
# whose cpu_count would cap the request; the cap warning is expected.
pytestmark = pytest.mark.filterwarnings(
    "ignore:jobs=.* exceeds os.cpu_count")


@pytest.fixture(scope="module")
def tiny_cpu(tiny_soc):
    return tiny_soc.cpu


@pytest.fixture(scope="module")
def tiny_faults(tiny_cpu):
    return generate_fault_list(tiny_cpu).faults()


@pytest.fixture(scope="module")
def transition_faults(tiny_cpu):
    return generate_fault_list(tiny_cpu, model="transition").faults()


@pytest.fixture(scope="module")
def tiny_captured(tiny_cpu):
    """70 random mission cycles over the controllable nets: two pattern
    windows, so two-pattern faults also pair across a window boundary."""
    rng = random.Random(2013)
    controllable = [p for p in tiny_cpu.input_ports()
                    if tiny_cpu.net(p).tied is None]
    controllable += CombinationalSimulator(tiny_cpu).state_nets
    return CapturedPatterns(
        controllable_nets=controllable,
        words={net: rng.getrandbits(70) for net in controllable},
        n_cycles=70)


# --------------------------------------------------------------------- #
# content addressing
# --------------------------------------------------------------------- #
class TestContentKey:
    def test_stable_and_tagged(self, tiny_cpu):
        first = content_key("job", tiny_cpu, "planes", 64)
        second = content_key("job", tiny_cpu, "planes", 64)
        assert first == second
        assert first.startswith("job:")

    def test_sensitive_to_every_part(self, tiny_cpu):
        base = content_key("job", tiny_cpu, "planes", 64)
        assert content_key("job", tiny_cpu, "words", 64) != base
        assert content_key("job", tiny_cpu, "planes", 32) != base
        assert content_key("grade", tiny_cpu, "planes", 64) != base

    def test_sensitive_to_the_netlist(self, tiny_cpu):
        # A structurally identical clone shares the signature, so a warm
        # pool can serve it from the worker-side cache.
        clone = tiny_cpu.clone(tiny_cpu.name)
        assert (content_key("job", clone, 1)
                == content_key("job", tiny_cpu, 1))
        renamed = tiny_cpu.clone("renamed")
        assert (content_key("job", renamed, 1)
                != content_key("job", tiny_cpu, 1))


# --------------------------------------------------------------------- #
# the work-stealing chunk scheduler
# --------------------------------------------------------------------- #
class TestChunkScheduler:
    def test_default_chunk_size_bounds(self):
        assert default_chunk_size(4, 0) == 1
        assert default_chunk_size(1, 1) == 1
        assert 1 <= default_chunk_size(4, 10_000) <= 64
        assert default_chunk_size(2, 100_000) == 64

    def test_chunks_are_exact_and_deterministic(self, tiny_cpu,
                                                tiny_faults):
        first = build_chunks(tiny_cpu, tiny_faults, 16)
        second = build_chunks(tiny_cpu, tiny_faults, 16)
        assert first == second
        scattered = sorted(p for chunk in first for p in chunk)
        assert scattered == list(range(len(tiny_faults)))

    def test_positions_ascend_within_chunks(self, tiny_cpu, tiny_faults):
        for chunk in build_chunks(tiny_cpu, tiny_faults, 16):
            assert list(chunk) == sorted(chunk)

    def test_monsters_lead_the_dispatch_order(self, tiny_cpu, tiny_faults):
        compiled = get_compiled(tiny_cpu)
        sizes = compiled.fanout_cone_sizes()

        def cost(position):
            rep = cone_representative(
                compiled, resolve_site(compiled, tiny_faults[position]))
            return sizes[rep] + 1 if rep >= 0 else 1

        costs = [cost(p) for p in range(len(tiny_faults))]
        mean = sum(costs) / len(costs)
        monsters = {p for p, c in enumerate(costs)
                    if c >= MONSTER_RATIO * mean}
        chunks = build_chunks(tiny_cpu, tiny_faults, 16)
        seen_regular = False
        for chunk in chunks:
            if len(chunk) == 1 and chunk[0] in monsters:
                assert not seen_regular, (
                    "monster singleton dispatched after a packed chunk")
            else:
                seen_regular = True
        for monster in monsters:
            assert (monster,) in chunks

    def test_chunk_size_is_respected_outside_monsters(self, tiny_cpu,
                                                      tiny_faults):
        compiled = get_compiled(tiny_cpu)
        sizes = compiled.fanout_cone_sizes()
        costs = []
        for fault in tiny_faults:
            rep = cone_representative(compiled,
                                      resolve_site(compiled, fault))
            costs.append(sizes[rep] + 1 if rep >= 0 else 1)
        mean = sum(costs) / len(costs)
        chunks = build_chunks(tiny_cpu, tiny_faults, 8)
        for chunk in chunks:
            if len(chunk) == 1 and costs[chunk[0]] >= MONSTER_RATIO * mean:
                continue
            assert len(chunk) <= 8


# --------------------------------------------------------------------- #
# pool lifecycle + content-addressed installs
# --------------------------------------------------------------------- #
class TestPoolLifecycle:
    def test_install_then_warm_hit(self, tiny_cpu, tiny_faults,
                                   tiny_captured):
        pool = WorkerPool(2)
        try:
            grader = FaultGrader(tiny_cpu, jobs=2, pool=pool)
            sample = tiny_faults[::7][:40]
            first = grader.grade(tiny_captured, sample)
            installs = pool.stats["installs"]
            assert installs >= 2  # the netlist + the job
            assert pool.stats["install_hits"] == 0
            second = grader.grade(tiny_captured, sample)
            assert pool.stats["installs"] == installs  # nothing new
            assert pool.stats["install_hits"] == 1
            # The warm re-entry's setup is a cache hit: microseconds.
            assert pool.stats["last_setup_seconds"] < 0.05
            assert second == first
            assert first
        finally:
            pool.close()

    def test_closed_pool_raises(self):
        pool = WorkerPool(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(PoolClosedError):
            pool.ensure_job("job:x", lambda: None)

    def test_registry_reuses_and_recreates(self):
        shutdown_pools()
        first = get_pool(1)
        assert get_pool(1) is first
        assert any(s["workers"] == 1 for s in pool_stats())
        first.close()
        second = get_pool(1)
        assert second is not first
        shutdown_pools()

    def test_forked_child_gets_a_fresh_registry_pool(self, tiny_cpu):
        """A child forked after the parent started a registry pool must
        never drive the parent's workers through inherited pipe ends."""
        import multiprocessing

        shutdown_pools()
        parent = get_pool(1, "fork")
        key = parent.ensure_job("probe:fork", lambda: _EchoJob(tiny_cpu))
        with parent.session(key) as run:
            run.submit("run", (0, 1), tag=0)
            assert [outcome[1] for _, _, outcome in run.results()] == [2]
        assert parent.stats["tasks"] == 1

        def child(conn):
            pool = get_pool(1, "fork")
            conn.send((pool._started, pool.stats["tasks"]))
            conn.close()

        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        process = ctx.Process(target=child, args=(sender,))
        process.start()
        sender.close()
        try:
            assert receiver.poll(30), "forked child never answered"
            started, tasks = receiver.recv()
        finally:
            process.join(10)
            shutdown_pools()
        assert not process.is_alive()
        assert (started, tasks) == (False, 0)

    def test_exception_inside_session_clears_run_state(self, tiny_cpu,
                                                       tiny_faults,
                                                       tiny_captured):
        pool = WorkerPool(2)
        try:
            grader = FaultGrader(tiny_cpu, jobs=2, pool=pool)
            sample = tiny_faults[::9][:30]
            reference = FaultGrader(tiny_cpu).grade(tiny_captured, sample)
            key = "probe:abort"
            pool.ensure_job(key, lambda: _EchoJob(tiny_cpu))
            with pytest.raises(RuntimeError, match="deliberate"):
                with pool.session(key) as run:
                    run.submit("run", (0, 1), tag=0)
                    raise RuntimeError("deliberate")
            # The aborted run must not leak tasks into the next one.
            assert grader.grade(tiny_captured, sample) == reference
        finally:
            pool.close()


class _EchoJob:
    """Trivial installable job (used by the abort, dispatch and death
    tests); ``netlist`` may be ``None``, like a sweep job's."""

    def __init__(self, netlist, delay: float = 0.0) -> None:
        self.netlist = netlist
        self.delay = delay

    def run(self, task):
        chunk_id, value = task
        if self.delay:
            time.sleep(self.delay)
        return chunk_id, value * 2, os.getpid()

    def fail(self, task):
        raise ValueError(f"task {task} failed on purpose")


class TestDispatch:
    def test_first_slots_fill_breadth_first(self):
        """4 tasks on 2 workers: tasks 0 and 1 start on different workers
        (every first slot fills before any second one), and a job without
        a netlist installs whole."""
        with WorkerPool(2) as pool:
            key = pool.ensure_job("probe:breadth",
                                  lambda: _EchoJob(None, delay=0.05))
            pids = {}
            with pool.session(key) as run:
                for i in range(4):
                    run.submit("run", (i, i), tag=i)
                for tag, _task, (_cid, doubled, pid) in run.results():
                    assert doubled == 2 * tag
                    pids[tag] = pid
            assert pids[0] != pids[1]
            assert pids[2] != pids[3]
            assert not any(k.startswith("net:") for k in pool._objects)


class TestInterleavedRuns:
    """Runs on one pool share the workers; each gets only its results."""

    @staticmethod
    def _collect(pool, key, tags, *, during=None):
        seen = {}
        with pool.session(key) as run:
            for tag in tags:
                run.submit("run", (tag, tag), tag=tag)
            for tag, _task, (_cid, doubled, _pid) in run.results():
                seen[tag] = doubled
                if during is not None:
                    during()
                    during = None
        return seen

    def test_nested_run_between_results(self):
        with WorkerPool(2) as pool:
            outer = pool.ensure_job("probe:outer",
                                    lambda: _EchoJob(None, delay=0.05))
            inner = pool.ensure_job("probe:inner", lambda: _EchoJob(None))
            nested = {}

            def run_inner():
                nested.update(self._collect(pool, inner, [10, 11, 12]))

            seen = self._collect(pool, outer, range(6), during=run_inner)
            assert seen == {tag: 2 * tag for tag in range(6)}
            assert nested == {tag: 2 * tag for tag in (10, 11, 12)}

    def test_runs_on_two_threads(self):
        import threading

        with WorkerPool(2) as pool:
            keys = [pool.ensure_job(f"probe:thread{i}",
                                    lambda: _EchoJob(None, delay=0.01))
                    for i in range(2)]
            outcomes = [None, None]

            def drive(i):
                tags = range(100 * i, 100 * i + 8)
                outcomes[i] = self._collect(pool, keys[i], tags)

            threads = [threading.Thread(target=drive, args=(i,))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            for i in range(2):
                assert outcomes[i] == {tag: 2 * tag
                                       for tag in range(100 * i, 100 * i + 8)}

    def test_a_task_error_reaches_only_its_own_run(self):
        with WorkerPool(2) as pool:
            outer = pool.ensure_job("probe:ok",
                                    lambda: _EchoJob(None, delay=0.05))
            failing = pool.ensure_job("probe:fail", lambda: _EchoJob(None))

            def run_failing():
                with pytest.raises(WorkerTaskError, match="on purpose"):
                    with pool.session(failing) as run:
                        run.submit("fail", 7)
                        list(run.results())

            seen = self._collect(pool, outer, range(4), during=run_failing)
            assert seen == {tag: 2 * tag for tag in range(4)}

    def test_busy_job_survives_eviction(self):
        with WorkerPool(2) as pool:
            outer = pool.ensure_job("probe:busy",
                                    lambda: _EchoJob(None, delay=0.05))

            def install_many():
                for i in range(DEFAULT_JOB_CACHE + 2):
                    pool.ensure_job(f"probe:filler{i}",
                                    lambda: _EchoJob(None))

            seen = self._collect(pool, outer, range(6), during=install_many)
            assert seen == {tag: 2 * tag for tag in range(6)}
            pool.forget(outer)
            assert outer not in pool._objects


# --------------------------------------------------------------------- #
# one pool task per chunk
# --------------------------------------------------------------------- #
class TestOneTaskPerChunk:
    def test_grading_and_simulation_submit_one_task_per_chunk(
            self, tiny_soc, tiny_cpu, tiny_faults, tiny_captured):
        """Each chunk walks all of its pattern windows inside one task, so
        a grading run costs exactly one pool round trip per chunk, with
        fault dropping on (the SBST capture) or off (random cycles)."""
        from repro.sbst import ToggleMonitor, generate_sbst_suite

        captured = ToggleMonitor(tiny_cpu).run_suite(
            generate_sbst_suite(tiny_soc.config.cpu))
        with WorkerPool(2) as pool:
            n_chunks = len(build_chunks(
                tiny_cpu, tiny_faults,
                default_chunk_size(pool.workers, len(tiny_faults))))
            before = pool.stats["tasks"]
            FaultGrader(tiny_cpu, jobs=2, pool=pool).grade(captured,
                                                           tiny_faults)
            assert pool.stats["tasks"] - before == n_chunks
            before = pool.stats["tasks"]
            FaultGrader(tiny_cpu, jobs=2, pool=pool,
                        drop_detected=False).grade(tiny_captured,
                                                   tiny_faults)
            assert pool.stats["tasks"] - before == n_chunks


# --------------------------------------------------------------------- #
# byte-identity under randomized steal interleavings
# --------------------------------------------------------------------- #
def _chunk_size(chunk):
    """Pin the scheduler's chunk granularity for the duration of a run."""
    return mock.patch("repro.runtime.default_chunk_size",
                      return_value=chunk)


def _identity_case(netlist, faults, captured, jitter_seed, chunk,
                   drop_detected=True):
    serial = FaultGrader(netlist, drop_detected=drop_detected).grade(
        captured, faults)
    pool = WorkerPool(2, jitter_seed=jitter_seed)
    try:
        grader = FaultGrader(netlist, jobs=2, pool=pool,
                             drop_detected=drop_detected)
        with _chunk_size(chunk):
            pooled = grader.grade(captured, faults)
    finally:
        pool.close()
    assert serial and len(serial) < len(faults)
    assert pooled == serial


class TestStealOrderIdentity:
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(jitter_seed=st.integers(min_value=0, max_value=2**31),
           chunk=st.integers(min_value=1, max_value=9))
    def test_stuck_at_identity(self, tiny_cpu, tiny_faults, tiny_captured,
                               jitter_seed, chunk):
        sample = tiny_faults[::5][:60]
        _identity_case(tiny_cpu, sample, tiny_captured, jitter_seed, chunk)

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(jitter_seed=st.integers(min_value=0, max_value=2**31),
           chunk=st.integers(min_value=1, max_value=9))
    def test_transition_identity(self, tiny_cpu, transition_faults,
                                 tiny_captured, jitter_seed, chunk):
        sample = transition_faults[::5][:60]
        _identity_case(tiny_cpu, sample, tiny_captured, jitter_seed, chunk)

    def test_no_drop_identity(self, tiny_cpu, tiny_faults, tiny_captured):
        sample = tiny_faults[::11][:40]
        _identity_case(tiny_cpu, sample, tiny_captured, jitter_seed=7,
                       chunk=3, drop_detected=False)

    def test_classify_identity_across_jitter(self, tiny_cpu, tiny_faults):
        from repro.atpg.engine import (AtpgEffort,
                                       StructuralUntestabilityEngine)

        sample = tiny_faults[::13][:40]
        reference = StructuralUntestabilityEngine(
            tiny_cpu, effort=AtpgEffort.RANDOM,
            random_patterns=32).classify(sample)
        for jitter_seed in (1, 23):
            pool = WorkerPool(2, jitter_seed=jitter_seed)
            try:
                with _chunk_size(4):
                    pooled = StructuralUntestabilityEngine(
                        tiny_cpu, effort=AtpgEffort.RANDOM, jobs=2,
                        pool=pool, random_patterns=32).classify(sample)
            finally:
                pool.close()
            assert pooled.classifications == reference.classifications

    def test_injected_pool_reports_its_worker_count(self, tiny_cpu,
                                                    tiny_faults):
        from repro.atpg.engine import StructuralUntestabilityEngine

        pool = WorkerPool(2)
        try:
            engine = StructuralUntestabilityEngine(
                tiny_cpu, effort="random", random_patterns=32, pool=pool)
            report = engine.classify(tiny_faults[::13][:40])
        finally:
            pool.close()
        assert report.stats["jobs_resolved"] == 2

    def test_spawn_start_method_identity(self, tiny_cpu, tiny_faults,
                                         tiny_captured):
        sample = tiny_faults[::7][:40]
        serial = FaultGrader(tiny_cpu).grade(tiny_captured, sample)
        pool = WorkerPool(2, start_method="spawn")
        try:
            pooled = FaultGrader(tiny_cpu, jobs=2, pool=pool).grade(
                tiny_captured, sample)
        finally:
            pool.close()
        assert pooled == serial


# --------------------------------------------------------------------- #
# worker death mid-round
# --------------------------------------------------------------------- #
class TestWorkerDeath:
    def test_kill_9_requeues_and_restarts(self, tiny_cpu):
        pool = WorkerPool(2, start_method="fork")
        try:
            key = pool.ensure_job("probe:sleepy",
                                  lambda: _EchoJob(tiny_cpu, delay=0.03))
            results = []
            killed = False
            with pool.session(key) as run:
                for i in range(14):
                    run.submit("run", (i, i), tag=i)
                for _tag, _task, outcome in run.results():
                    results.append(outcome)
                    if not killed:
                        victim = pool.worker_pids()[0]
                        os.kill(victim, signal.SIGKILL)
                        killed = True
            # Every chunk completed exactly once with the right value...
            assert sorted(cid for cid, _, _ in results) == list(range(14))
            assert all(doubled == cid * 2
                       for cid, doubled, _ in results)
            # ... and the death was surfaced, not hung over.
            assert pool.stats["worker_restarts"] >= 1
        finally:
            pool.close()

    def test_death_during_grading_keeps_identity(self, tiny_cpu,
                                                 tiny_faults,
                                                 tiny_captured):
        sample = tiny_faults[::3]
        serial = FaultGrader(tiny_cpu).grade(tiny_captured, sample)
        pool = WorkerPool(2, start_method="fork", jitter_seed=3)
        try:
            grader = FaultGrader(tiny_cpu, jobs=2, pool=pool)
            # Prime the pool, then murder a worker between rounds: the
            # replacement must be re-provisioned from the payload cache.
            pids = pool.worker_pids()
            os.kill(pids[-1], signal.SIGKILL)
            time.sleep(0.05)
            with _chunk_size(2):
                pooled = grader.grade(tiny_captured, sample)
        finally:
            pool.close()
        assert pooled == serial
        assert pool.stats["worker_restarts"] >= 1


# --------------------------------------------------------------------- #
# import footprint
# --------------------------------------------------------------------- #
def test_analyze_and_pooled_grading_never_import_numpy():
    """The simulation engines are pure Python: neither an analysis nor a
    pooled grading run may pull numpy (and its per-process RSS) in."""
    script = (
        "import sys\n"
        "from repro.api import RunOptions, Session\n"
        "from repro.faults.faultlist import generate_fault_list\n"
        "from repro.runtime import WorkerPool\n"
        "from repro.sbst import FaultGrader, ToggleMonitor, "
        "generate_sbst_suite\n"
        "from repro.soc.config import SoCConfig\n"
        "from repro.soc.soc_builder import build_soc\n"
        "Session().analyze('tiny', options=RunOptions(effort='random'))\n"
        "soc = build_soc(SoCConfig.from_name('tiny'))\n"
        "captured = ToggleMonitor(soc.cpu).run_suite(\n"
        "    generate_sbst_suite(soc.config.cpu))\n"
        "faults = generate_fault_list(soc.cpu).faults()[::10]\n"
        "with WorkerPool(2) as pool:\n"
        "    FaultGrader(soc.cpu, jobs=2, pool=pool).grade(captured, faults)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": "src"})
    assert proc.stdout.strip() == "False"
