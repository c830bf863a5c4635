"""Cone-aware parallel execution over the collapsed fault population.

The paper's core loop — classify every fault of an embedded core as
on-line functionally untestable or not — and its SBST coverage-gain
experiment are embarrassingly parallel over the fault list.  This module
runs mission-mode fault grading (:func:`sharded_mission_grade`) and the
per-fault phases of untestability classification (:class:`PooledPhases`,
driven by :meth:`repro.atpg.engine.StructuralUntestabilityEngine.classify`)
on the warm worker pool of :mod:`repro.runtime`:

chunks
    The population is cut into small cone-affine chunks
    (:func:`repro.runtime.build_chunks`): faults sharing a fanout cone stay
    together, monster cones go first as singletons, and idle workers steal
    whatever is left.  A grade keeps the last input's chunk plan and job
    key on the compiled netlist, so a repeat grade of an equal input
    rebuilds neither.

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


# --------------------------------------------------------------------- #
# public engines
# --------------------------------------------------------------------- #
class _GradePlan:
    """The last grading input of one compiled netlist and its plan, held
    as one ``(input, (chunks, job key))`` tuple in ``entry`` that
    :func:`_grade_plan` replaces whole, so a reader sees either the old
    pair or the new one."""

    __slots__ = ("entry",)

    def __init__(self, _compiled=None) -> None:
        self.entry: Optional[Tuple[tuple, Tuple[list, str]]] = None


def _grade_plan(netlist: Netlist, faults: Tuple[Fault, ...],
                observation_nets: frozenset,
                windows: List[Tuple[Mapping[str, int], int]],
                chunk_size: int) -> Tuple[list, str]:
    """The chunk plan and pool job key of one grading input, memoised.

    Building the chunks and pickling the faults and windows into the job
    key cost far more than a lookup, and only a repeat grade of an equal
    input (the same faults, re-captured patterns) can reuse them, so one
    slot holds the last input's plan.  It is reused only for an equal
    input: the fault tuple, the chunk size, the observation nets and
    every window's ``(width, (net, word) pairs)`` are compared for
    equality, which the fault tuple passes element by element on
    identity when the caller grades the same fault objects.
    """
    from repro.runtime import build_chunks, content_key

    memo = get_compiled(netlist).extension("grade_plan", _GradePlan)
    key = (faults, chunk_size, observation_nets,
           tuple((width, tuple(words.items())) for words, width in windows))
    entry = memo.entry
    if entry is not None and entry[0] == key:
        return entry[1]
    plan = (build_chunks(netlist, faults, chunk_size, fold_stems=True),
            content_key("wordgrade", netlist,
                        tuple(sorted(observation_nets)), faults,
                        list(windows)))
    memo.entry = (key, plan)
    return plan


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
    detected-fault set.  A repeat grade of equal inputs reuses the chunk
    plan and job key (:func:`_grade_plan`), and so finds its job installed.
    """
    from repro.runtime import default_chunk_size
    from repro.sbst.monitor import pattern_windows

    fault_tuple = tuple(faults)
    windows = pattern_windows(patterns, word_size)
    if not windows:
        return set()
    observation_nets = frozenset(observation_nets)
    pool = _pool_for(pool, jobs)
    chunks, key = _grade_plan(
        netlist, fault_tuple, observation_nets, windows,
        default_chunk_size(pool.workers, len(fault_tuple)))
    pool.ensure_job(key, lambda: _WordGradeJob(
        netlist, fault_tuple, observation_nets, windows))
    detected: Set[Fault] = set()
    for hits in _fan_out(pool, key, "run_chunk",
                         [(positions, drop_detected) for positions in chunks]):
        detected.update(fault_tuple[position] for position in hits)
    return detected


class PooledPhases:
    """Runs a :class:`~repro.atpg.engine.DetectionPhases` on the pool.

    The phases object is the installed job, keyed by configuration only,
    so it stays warm across fault subsets.  :meth:`run` fans
    ``phases.<method>`` out over cone-affine chunks, results in chunk order.
    """

    def __init__(self, phases, *, jobs: Optional[int] = None,
                 pool=None) -> None:
        from repro.runtime import content_key

        self.netlist = phases.netlist
        self.pool = _pool_for(pool, jobs)
        self.key = content_key(
            "classify", phases.netlist, phases.effort.name,
            phases.random_patterns, phases.backtrack_limit, phases.seed,
            phases.static_learning, phases.atpg_backend)
        self.pool.ensure_job(self.key, lambda: phases)
        self._restarts = self.pool.stats["worker_restarts"]

    def run(self, method: str, faults: List[Fault]) -> List[tuple]:
        from repro.runtime import build_chunks, default_chunk_size

        if not faults:
            return []
        chunks = build_chunks(self.netlist, faults, default_chunk_size(
            self.pool.workers, len(faults)))
        return _fan_out(self.pool, self.key, method,
                        [tuple(faults[position] for position in positions)
                         for positions in chunks])

    def stats(self) -> Dict[str, int]:
        """Worker restarts since install (when any) and the worker count."""
        restarts = self.pool.stats["worker_restarts"] - self._restarts
        stats = {"worker_restarts": restarts} if restarts else {}
        stats["jobs_resolved"] = self.pool.workers
        return stats
