"""Cone-aware parallel execution over the collapsed fault population.

The paper's core loop — classify every fault of an embedded core as
on-line functionally untestable or not — and its SBST coverage-gain
experiment are embarrassingly parallel over the fault list.  This module
runs mission-mode fault grading (:func:`sharded_mission_grade`) and
untestability classification (:func:`sharded_classify`) on the warm worker
pool of :mod:`repro.runtime`:

chunks
    The population is cut into small cone-affine chunks
    (:func:`repro.runtime.build_chunks`): faults sharing a fanout cone stay
    together, monster cones go first as singletons, and idle workers steal
    whatever is left.

one task per chunk
    A chunk is one pool task.  A grading task walks every pattern window
    of its chunk in order and drops detected faults as it goes; dropping
    never needs to cross a chunk, because each fault lives in exactly one.

pools
    ``jobs > 1`` runs on the injected :class:`~repro.runtime.WorkerPool`,
    or else on the process-global registry pool ``get_pool(jobs)``.  Fork
    (copy-on-write) versus spawn start is the pool's start method
    (``REPRO_POOL_START_METHOD``), not a separate code path.

detection
    Grading workers run the serial word engine's window loop
    (:func:`repro.simulation.parallel.detect_windows`) and classification
    workers the serial detection phases, so detected sets and verdicts
    stay **byte-identical** to the serial paths whatever order workers
    steal chunks in.  In CI the golden scenario corpus checks the
    verdicts end to end, and the ``sbst-coverage`` job the date13
    grading.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from repro.faults.models import Fault, resolve_injection
from repro.netlist.compiled import get_compiled
from repro.netlist.module import Netlist
from repro.simulation.kernels import observation_flags, resolve_site
from repro.simulation.parallel import compute_good_words, detect_windows

_oversubscribe_warned = False


def resolve_jobs(jobs: Optional[int], *, cap: bool = True) -> int:
    """Coerce a worker-count spec: ``None`` means one per CPU, minimum 1.

    Requests beyond ``os.cpu_count()`` used to silently oversubscribe the
    machine (and let single-core CI boxes publish "parallel is slower"
    benchmark numbers with no attribution); they are now capped at the CPU
    count with a one-time warning.  ``cap=False`` returns the raw request
    — routing decisions that only care whether parallelism was *asked for*
    want that, not the capped worker count.
    """
    cpus = max(1, os.cpu_count() or 1)
    if jobs is None:
        return cpus
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    jobs = int(jobs)
    if cap and jobs > cpus:
        global _oversubscribe_warned
        if not _oversubscribe_warned:
            _oversubscribe_warned = True
            warnings.warn(
                f"jobs={jobs} exceeds os.cpu_count()={cpus}; capping the "
                f"worker count at {cpus} (extra workers would only contend)",
                RuntimeWarning, stacklevel=2)
        return cpus
    return jobs


def _reset_oversubscription_warning() -> None:
    """Re-arm the one-time oversubscription warning (test hook)."""
    global _oversubscribe_warned
    _oversubscribe_warned = False


def _pool_for(pool, jobs: Optional[int]):
    """The injected pool, else the registry pool for ``jobs`` workers."""
    if pool is not None:
        return pool
    from repro.runtime import get_pool

    return get_pool(resolve_jobs(jobs))


def _fan_out(pool, key: str, method: str, tasks: Sequence) -> List:
    """Run ``job.method(task)`` once per task on the pool; results come
    back in task order, whichever worker finished first."""
    outcomes: List = [None] * len(tasks)
    with pool.session(key) as run:
        for index, task in enumerate(tasks):
            run.submit(method, task, tag=index)
        for index, _task, outcome in run.results():
            outcomes[index] = outcome
    return outcomes


# --------------------------------------------------------------------- #
# worker-side jobs
# --------------------------------------------------------------------- #
class _WordGradeJob:
    """Pooled counterpart of ``FaultGrader.grade`` (two-valued words).

    A job carries everything a worker needs (netlist, the fault tuple,
    observation nets, pattern windows); tasks address faults by position.
    The compiled IR, observation flags, resolved fault entries and the
    good words of each window are built on first use and **excluded from
    pickling**: workers rebuild them lazily.
    """

    _RUNTIME_ATTRS = ("_compiled", "_obs_flags", "_entries", "_window_memo")

    def __init__(self, netlist: Netlist, faults: Tuple[Fault, ...],
                 observation_nets: frozenset,
                 windows: Sequence[Tuple[Mapping[str, int], int]]) -> None:
        self.netlist = netlist
        self.faults = faults
        self.observation_nets = observation_nets
        self.windows = list(windows)
        self._compiled = None

    def __getstate__(self):
        state = self.__dict__.copy()
        for attr in self._RUNTIME_ATTRS:
            state.pop(attr, None)
        state["_compiled"] = None
        return state

    def prepare(self) -> None:
        if self._compiled is not None:
            return
        compiled = get_compiled(self.netlist)
        self._obs_flags = observation_flags(compiled, self.observation_nets)
        self._entries = [(position, resolve_site(compiled, fault),
                          resolve_injection(fault))
                         for position, fault in enumerate(self.faults)]
        self._window_memo: Dict[int, tuple] = {}
        self._compiled = compiled

    def _good_windows(self):
        """``(good words, mask, width)`` per window, memoised: every chunk
        of the job walks the same windows."""
        for index, (words, n_patterns) in enumerate(self.windows):
            memo = self._window_memo.get(index)
            if memo is None:
                memo = compute_good_words(self._compiled, words,
                                          n_patterns) + (n_patterns,)
                self._window_memo[index] = memo
            yield memo

    def run_chunk(self, task):
        """task = (fault positions, drop) -> detected positions.

        Walks every pattern window in order; with ``drop`` a detected
        fault leaves the chunk for all later windows.
        """
        positions, drop = task
        self.prepare()
        entries = self._entries
        return sorted(detect_windows(
            self._compiled, [entries[position] for position in positions],
            self._good_windows(), self._obs_flags, drop))


class _DetectClassifyJob:
    """Pooled detection phases (random patterns + PODEM) of the engine.

    The netlist-global tied-value fixpoint runs *once* in the driver;
    workers only see the faults it left unclassified and run the strictly
    per-fault detection phases on their chunk.  Fault chunks ride inside
    each task, so one installed job (keyed by configuration only) serves
    every fault subset of the same netlist — warm re-use across calls.
    """

    def __init__(self, netlist: Netlist, effort, random_patterns: int,
                 backtrack_limit: int, seed: int,
                 static_learning: bool = True,
                 atpg_backend: Optional[str] = None) -> None:
        self.netlist = netlist
        self.effort = effort
        self.random_patterns = random_patterns
        self.backtrack_limit = backtrack_limit
        self.seed = seed
        self.static_learning = static_learning
        self.atpg_backend = atpg_backend

    def run_faults(self, chunk_faults):
        """A fault tuple -> (classifications, phase runtimes, stats,
        patterns)."""
        from repro.atpg.engine import run_detection_phases

        return run_detection_phases(
            self.netlist, list(chunk_faults), self.effort,
            random_patterns=self.random_patterns,
            backtrack_limit=self.backtrack_limit, seed=self.seed,
            static_learning=self.static_learning,
            atpg_backend=self.atpg_backend)

    def run_escalation(self, chunk_faults):
        """One slice of the merged abort frontier -> (improvements,
        patterns, phase runtimes, stats)."""
        from repro.atpg.engine import run_escalation_phase

        return run_escalation_phase(
            self.netlist, list(chunk_faults),
            backtrack_limit=self.backtrack_limit,
            static_learning=self.static_learning,
            atpg_backend=self.atpg_backend)


# --------------------------------------------------------------------- #
# public engines
# --------------------------------------------------------------------- #
def sharded_mission_grade(netlist: Netlist, faults: Iterable[Fault],
                          patterns, *,
                          observation_nets: Iterable[str],
                          word_size: int = 64,
                          drop_detected: bool = True,
                          jobs: Optional[int] = None,
                          pool=None) -> Set[Fault]:
    """Pooled counterpart of :meth:`repro.sbst.grading.FaultGrader.grade`.

    ``patterns`` is a :class:`~repro.sbst.monitor.CapturedPatterns`;
    ``observation_nets`` is the exact observation-point set of the serial
    grader, so verdicts are identical by construction.  Returns the
    detected-fault set.
    """
    from repro.runtime import build_chunks, content_key, default_chunk_size
    from repro.sbst.monitor import pattern_windows

    fault_tuple = tuple(faults)
    windows = pattern_windows(patterns, word_size)
    if not windows:
        return set()
    observation_nets = frozenset(observation_nets)
    pool = _pool_for(pool, jobs)
    chunks = build_chunks(netlist, fault_tuple,
                          default_chunk_size(pool.workers, len(fault_tuple)))
    key = content_key("wordgrade", netlist, tuple(sorted(observation_nets)),
                      fault_tuple, list(windows))
    pool.ensure_job(key, lambda: _WordGradeJob(
        netlist, fault_tuple, observation_nets, windows))
    detected: Set[Fault] = set()
    for hits in _fan_out(pool, key, "run_chunk",
                         [(positions, drop_detected) for positions in chunks]):
        detected.update(fault_tuple[position] for position in hits)
    return detected


def sharded_classify(netlist: Netlist, faults: Iterable[Fault], *,
                     effort, jobs: Optional[int] = None,
                     random_patterns: int = 256,
                     backtrack_limit: int = 200,
                     seed: int = 2013,
                     static_learning: bool = True,
                     atpg_backend: Optional[str] = None,
                     pool=None):
    """Classify a fault population across pool workers.

    The netlist-global tied-value fixpoint runs exactly once, in the
    calling process (parallelising it would repeat the global propagation
    per chunk for no benefit — at TIE effort this function therefore costs
    the same as the serial engine and starts no workers at all).  The
    faults it leaves unclassified go through the per-fault detection
    phases (seeded random patterns, the selected ATPG portfolio backend)
    in cone-affine chunks on the pool.  Every verdict is batch-independent
    and results merge in chunk order, so the report carries exactly the
    serial engine's classifications.  ``runtime_seconds`` is wall clock;
    per-phase runtimes are summed across chunks (CPU seconds).

    For a backend with an escalation tier (``dalg``) the driver merges
    the per-chunk aborts after the primary round, re-chunks the merged
    abort frontier and fans it out over the same installed job — so a
    fault aborted in one chunk is escalated exactly once, no matter how
    the primary faults were sliced.
    """
    from repro.atpg.engine import (AtpgEffort, UntestabilityReport,
                                   resolve_effort)
    from repro.atpg.implication import ImplicationEngine
    from repro.atpg.portfolio import compact_patterns, resolve_atpg_backend
    from repro.atpg.tie_analysis import TieAnalysis
    from repro.faults.categories import FaultClass
    from repro.runtime import build_chunks, content_key, default_chunk_size

    fault_list = list(faults)
    effort = resolve_effort(effort)

    report = UntestabilityReport(effort=effort)
    start = time.perf_counter()
    phase_start = time.perf_counter()
    tie_result = TieAnalysis(netlist, ImplicationEngine(netlist)).run(
        fault_list)
    report.classifications.update(tie_result.classifications)
    report.phase_runtimes["tie"] = time.perf_counter() - phase_start

    remaining = [f for f in fault_list if f not in report.classifications]
    if effort is AtpgEffort.TIE or not remaining:
        report.runtime_seconds = time.perf_counter() - start
        return report

    pool = _pool_for(pool, jobs)
    key = content_key("classify", netlist, effort.name, random_patterns,
                      backtrack_limit, seed, static_learning, atpg_backend)
    pool.ensure_job(key, lambda: _DetectClassifyJob(
        netlist, effort, random_patterns, backtrack_limit, seed,
        static_learning, atpg_backend=atpg_backend))
    restarts_before = pool.stats["worker_restarts"]

    def fan_out(method: str, chunk_faults: List[Fault]) -> List[tuple]:
        chunks = build_chunks(
            netlist, chunk_faults,
            default_chunk_size(pool.workers, len(chunk_faults)))
        return _fan_out(pool, key, method,
                        [tuple(chunk_faults[position]
                               for position in positions)
                         for positions in chunks])

    def merge(runtimes: Dict[str, float], stats: Dict[str, int]) -> None:
        for phase, seconds in runtimes.items():
            report.phase_runtimes[phase] = (
                report.phase_runtimes.get(phase, 0.0) + seconds)
        for stat, count in stats.items():
            report.stats[stat] = report.stats.get(stat, 0) + count

    patterns: List[tuple] = []
    for (classifications, phase_runtimes, stats,
         chunk_patterns) in fan_out("run_faults", remaining):
        report.classifications.update(classifications)
        patterns.extend(chunk_patterns)
        merge(phase_runtimes, stats)

    # Escalation round: the merged abort frontier, in canonical fault
    # order, re-fanned over the same warm job.
    if (effort is AtpgEffort.FULL
            and resolve_atpg_backend(atpg_backend).escalates):
        frontier = [f for f in remaining
                    if report.classifications.get(f) is FaultClass.AU]
        if frontier:
            for (improvements, esc_patterns, esc_runtimes,
                 esc_stats) in fan_out("run_escalation", frontier):
                report.classifications.update(improvements)
                patterns.extend(esc_patterns)
                merge(esc_runtimes, esc_stats)

    restarts = pool.stats["worker_restarts"] - restarts_before
    if restarts:
        report.stats["worker_restarts"] = (
            report.stats.get("worker_restarts", 0) + restarts)
    report.stats["jobs_resolved"] = pool.workers
    if effort is AtpgEffort.FULL and patterns:
        phase_start = time.perf_counter()
        order = {fault: i for i, fault in enumerate(remaining)}
        patterns.sort(key=lambda entry: order[entry[0]])
        report.patterns, report.compaction = compact_patterns(
            netlist, patterns)
        report.phase_runtimes["compaction"] = (time.perf_counter()
                                               - phase_start)
    report.runtime_seconds = time.perf_counter() - start
    return report
