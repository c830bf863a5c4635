"""Cone-aware sharded execution over the collapsed fault population.

The paper's core loop — classify every stuck-at fault of an embedded core
as on-line functionally untestable or not — is embarrassingly parallel over
the fault list.  This module partitions a fault population into *shards*
that respect the circuit structure and runs fault simulation, mission-mode
fault grading and untestability classification across worker backends:

partitioning (:func:`partition_faults`)
    Faults are grouped by the *cone representative* of their injection
    site (the stem net whose transitive fanout cone the fault perturbs),
    so faults sharing a cone always land in the same shard, and the groups
    are balanced over shards by estimated simulation cost — the memoised
    fanout-cone size of the representative net
    (:meth:`~repro.netlist.compiled.CompiledNetlist.fanout_cone_sizes`)
    times the group population.  Shard assignment is deterministic:
    identical inputs produce identical shards in identical order.

backends
    ``serial`` (in-process, the reference), ``thread`` (a thread pool —
    API parity and overlap, the analyses are pure Python so raw speed-up
    is limited by the GIL) and ``process`` (a process pool; on platforms
    with ``fork`` the workers inherit the prepared job state — netlist,
    compiled IR, resolved fault sites — for free, elsewhere the job is
    pickled once per worker).

detection frontier (:class:`DetectionFrontier`)
    Per-shard detection verdicts merge through a shared frontier after
    every pattern-window round.  Fault dropping therefore keeps pruning
    work across shards and rounds: a fault detected in round *k* is never
    re-simulated in round *k+1*, a drained shard stops being dispatched,
    and the whole run stops as soon as every fault is detected.

detection
    Workers run the same event-driven cone walks as the serial engines
    (:mod:`repro.simulation.kernels`), so detection results — and the
    recorded detecting patterns — stay **byte-identical** to the serial
    :class:`~repro.simulation.fault_sim.FaultSimulator` and
    :class:`~repro.sbst.grading.FaultGrader` paths, which the golden
    scenario corpus enforces end-to-end in CI.
"""

from __future__ import annotations

import heapq
import itertools
import time
import multiprocessing
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from repro.faults.models import Fault, resolve_injection
from repro.netlist.compiled import CompiledNetlist, get_compiled
from repro.netlist.module import Netlist
from repro.simulation.fault_sim import (FaultSimResult, good_planes,
                                        observation_net_names,
                                        pair_allowed_mask, resolve_site)
from repro.simulation.kernels import detect_mask_planes, detects_words
from repro.simulation.parallel import (compute_good_words,
                                       pair_allowed_words, word_program)
from repro.simulation.simulator import plane_program
from repro.utils.bitvec import mask as bitmask

#: Backend names accepted by every sharded entry point.
SHARD_BACKENDS = ("serial", "thread", "process")

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


def resolve_backend(backend: Optional[str], jobs: int) -> str:
    """Pick/validate a shard backend; ``None`` selects the best available."""
    if backend is None:
        if jobs <= 1:
            return "serial"
        return ("process"
                if "fork" in multiprocessing.get_all_start_methods()
                else "thread")
    name = str(backend).strip().lower()
    if name not in SHARD_BACKENDS:
        known = ", ".join(SHARD_BACKENDS)
        raise ValueError(
            f"unknown shard backend {backend!r}; expected one of: {known}")
    return name


def _resolve_pool(pool, jobs: int):
    """Map the ``pool`` knob onto a live worker pool, or ``None``.

    ``None``/``"ephemeral"`` select the legacy per-call :class:`_ShardRunner`;
    ``"persistent"`` resolves to the process-global registry pool for this
    worker count (honouring ``REPRO_POOL_START_METHOD`` so CI can force
    ``spawn``); a :class:`~repro.runtime.pool.WorkerPool` instance is used
    as-is.  When a pool is selected it *is* the execution backend — the
    ``backend`` knob only governs the ephemeral path.
    """
    from repro.runtime.pool import WorkerPool, get_pool, resolve_pool_mode

    if isinstance(pool, WorkerPool):
        return pool
    mode = resolve_pool_mode(pool)
    if mode == "persistent":
        return get_pool(jobs,
                        os.environ.get("REPRO_POOL_START_METHOD") or None)
    return None


# --------------------------------------------------------------------- #
# cone-aware partitioning
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FaultShard:
    """One deterministic slice of the fault population."""

    index: int
    faults: Tuple[Fault, ...]
    cost: int


def cone_representative(compiled: CompiledNetlist, site: Tuple) -> int:
    """The stem net whose fanout cone a resolved fault site perturbs.

    ``-1`` for inert/phantom sites (no cone at all).  Faults with the same
    representative share their simulation cone, which is why the
    partitioner keeps them in one shard.
    """
    if site[0] == "net":
        return site[1]
    if site[0] == "branch":
        for out in compiled.op_fanout[site[1]]:
            if out >= 0:
                return out
    return -1


def partition_faults(netlist: Netlist, faults: Iterable[Fault],
                     n_shards: int,
                     compiled: Optional[CompiledNetlist] = None
                     ) -> List[FaultShard]:
    """Split ``faults`` into at most ``n_shards`` cone-aware shards.

    Faults are grouped by cone representative, the groups are balanced
    over shards greedily by descending estimated cost (cone size x group
    population, longest-processing-time first), and every shard lists its
    faults in the original population order.  The result is deterministic
    for a given (netlist, fault order, shard count).
    """
    fault_list = list(faults)
    if compiled is None:
        compiled = get_compiled(netlist)
    n_shards = max(1, int(n_shards))
    if n_shards == 1 or len(fault_list) <= 1:
        return [FaultShard(0, tuple(fault_list), len(fault_list))]

    sizes = compiled.fanout_cone_sizes()
    groups: Dict[int, List[int]] = {}
    for position, fault in enumerate(fault_list):
        rep = cone_representative(compiled, resolve_site(compiled, fault))
        groups.setdefault(rep, []).append(position)

    def group_cost(rep: int, members: List[int]) -> int:
        per_fault = sizes[rep] + 1 if rep >= 0 else 1
        return per_fault * len(members)

    ordered = sorted(groups.items(),
                     key=lambda item: (-group_cost(*item), item[0]))
    n_shards = min(n_shards, len(ordered))
    loads = [(0, index) for index in range(n_shards)]
    heapq.heapify(loads)
    bins: List[List[int]] = [[] for _ in range(n_shards)]
    bin_costs = [0] * n_shards
    for rep, members in ordered:
        load, index = heapq.heappop(loads)
        bins[index].extend(members)
        cost = group_cost(rep, members)
        bin_costs[index] += cost
        heapq.heappush(loads, (load + cost, index))

    shards = []
    for index, members in enumerate(bins):
        if not members:
            continue
        members.sort()
        shards.append(FaultShard(len(shards),
                                 tuple(fault_list[p] for p in members),
                                 bin_costs[index]))
    return shards


# --------------------------------------------------------------------- #
# the shared detection frontier
# --------------------------------------------------------------------- #
class DetectionFrontier:
    """Merge point for per-shard detection verdicts.

    Shards publish ``fault -> detecting pattern index`` entries after each
    round; the scheduler prunes every later round against the published
    set — fault dropping survives shard boundaries because the drop
    decision is taken here, not inside a worker — and stops dispatching
    drained shards.  Thread-safe, so a live thread backend and the merging
    scheduler can share one instance.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._detected: Dict[Fault, int] = {}

    def publish(self, fault: Fault, pattern_index: int) -> None:
        with self._lock:
            self._detected[fault] = pattern_index

    def publish_many(self,
                     items: Iterable[Tuple[Fault, int]]) -> None:
        with self._lock:
            self._detected.update(items)

    def __contains__(self, fault: Fault) -> bool:
        with self._lock:
            return fault in self._detected

    def __len__(self) -> int:
        with self._lock:
            return len(self._detected)

    def detected(self) -> Dict[Fault, int]:
        """Snapshot of every published verdict."""
        with self._lock:
            return dict(self._detected)


# --------------------------------------------------------------------- #
# worker-side jobs
# --------------------------------------------------------------------- #
class _ShardJob:
    """Base class for worker-side job state.

    A job carries everything a worker needs (netlist, shard fault tuples,
    patterns, observation config).  Heavy derived state — the compiled IR,
    evaluator programs, resolved fault sites, per-window good machines —
    is built by :meth:`prepare` and **excluded from pickling**: workers on
    a fork backend inherit it from the parent for free, spawn/pickle
    workers rebuild it lazily on first use.
    """

    _RUNTIME_ATTRS = ("_prepared", "_compiled", "_program", "_obs_flags",
                      "_sites", "_specs", "_window_memo")

    def __init__(self, netlist: Netlist,
                 shards: Tuple[Tuple[Fault, ...], ...],
                 observation_nets: frozenset) -> None:
        self.netlist = netlist
        self.shards = shards
        self.observation_nets = observation_nets
        self._prepared = False

    def __getstate__(self):
        state = self.__dict__.copy()
        for attr in self._RUNTIME_ATTRS:
            state.pop(attr, None)
        state["_prepared"] = False
        return state

    def prepare(self) -> None:
        if self._prepared:
            return
        compiled = get_compiled(self.netlist)
        obs_flags = bytearray(compiled.n_nets)
        net_id = compiled.net_id
        for name in self.observation_nets:
            nid = net_id.get(name)
            if nid is not None:
                obs_flags[nid] = 1
        self._compiled = compiled
        self._obs_flags = obs_flags
        self._program = self._build_program(compiled)
        self._sites = {
            fault: resolve_site(compiled, fault)
            for shard in self.shards for fault in shard
        }
        self._specs = {
            fault: resolve_injection(fault)
            for shard in self.shards for fault in shard
        }
        self._window_memo: Dict[int, tuple] = {}
        self._prepared = True

    def _build_program(self, compiled: CompiledNetlist):
        raise NotImplementedError


class _PlaneSimJob(_ShardJob):
    """Sharded counterpart of ``FaultSimulator.run`` (three-valued planes)."""

    def __init__(self, netlist: Netlist, shards, observation_nets,
                 patterns: Sequence[Mapping[str, int]],
                 word_size: int) -> None:
        super().__init__(netlist, shards, observation_nets)
        self.patterns = list(patterns)
        self.word_size = word_size

    def _build_program(self, compiled: CompiledNetlist):
        program, _ = plane_program(compiled)
        return program

    def _window_planes(self, start: int):
        memo = self._window_memo.get(start)
        if memo is None:
            window = self.patterns[start:start + self.word_size]
            memo = good_planes(self._compiled, self._program, window)
            self._window_memo[start] = memo
        return memo

    def run_window(self, task):
        """task = (shard id, fault positions, window start) ->
        (shard id, [(fault position, detection mask), ...])."""
        shard_id, positions, start = task
        self.prepare()
        g1, g0, frozen, mask = self._window_planes(start)
        shard = self.shards[shard_id]
        sites = self._sites
        specs = self._specs
        prev_planes = None  # previous window's (g1, g0, width), lazily built
        hits = []
        for position in positions:
            fault = shard[position]
            spec = specs[fault]
            det = detect_mask_planes(self._compiled, self._program,
                                     sites[fault], spec.stuck_value, g1, g0,
                                     frozen, mask, self._obs_flags)
            if det and spec.frames > 1:
                if prev_planes is None and start > 0:
                    p1, p0, _, _ = self._window_planes(
                        start - self.word_size)
                    prev_planes = (p1, p0, self.word_size)
                det &= pair_allowed_mask(self._compiled, sites[fault], spec,
                                         g1, g0, mask, prev=prev_planes)
            if det:
                hits.append((position, det))
        return shard_id, hits


class _WordGradeJob(_ShardJob):
    """Sharded counterpart of ``FaultGrader.grade`` (two-valued words)."""

    def __init__(self, netlist: Netlist, shards, observation_nets,
                 windows: Sequence[Tuple[Mapping[str, int], int]]) -> None:
        super().__init__(netlist, shards, observation_nets)
        self.windows = list(windows)

    def _build_program(self, compiled: CompiledNetlist):
        return word_program(compiled)

    def _window_words(self, window_index: int):
        memo = self._window_memo.get(window_index)
        if memo is None:
            words, n_patterns = self.windows[window_index]
            good, _ = compute_good_words(self._compiled, words, n_patterns)
            memo = (good, bitmask(n_patterns))
            self._window_memo[window_index] = memo
        return memo

    def run_window(self, task):
        """task = (shard id, fault positions, window index) ->
        (shard id, [fault position, ...])."""
        shard_id, positions, window_index = task
        self.prepare()
        good, word_mask = self._window_words(window_index)
        shard = self.shards[shard_id]
        sites = self._sites
        specs = self._specs
        prev = None  # previous window's (good words, width), lazily built
        hits = []
        for position in positions:
            fault = shard[position]
            spec = specs[fault]
            allowed = None
            if spec.frames > 1:
                if prev is None and window_index > 0:
                    prev_good, _ = self._window_words(window_index - 1)
                    prev = (prev_good, self.windows[window_index - 1][1])
                allowed = pair_allowed_words(self._compiled, sites[fault],
                                             spec, good, word_mask,
                                             prev=prev)
            if detects_words(self._compiled, self._program, sites[fault],
                             spec.stuck_value, good, word_mask,
                             self._obs_flags, allowed):
                hits.append(position)
        return shard_id, hits


class _DetectClassifyJob:
    """Sharded detection phases (random patterns + PODEM) of the engine.

    The netlist-global tied-value fixpoint runs *once* in the scheduler;
    workers only see the faults it left unclassified and run the strictly
    per-fault detection phases on their shard.
    """

    def __init__(self, netlist: Netlist,
                 shards: Tuple[Tuple[Fault, ...], ...],
                 effort, random_patterns: int, backtrack_limit: int,
                 seed: int, static_prune: bool = True,
                 static_learning: bool = True,
                 atpg_backend: Optional[str] = None,
                 atpg_seed: Optional[int] = None) -> None:
        self.netlist = netlist
        self.shards = shards
        self.effort = effort
        self.random_patterns = random_patterns
        self.backtrack_limit = backtrack_limit
        self.seed = seed
        self.static_prune = static_prune
        self.static_learning = static_learning
        self.atpg_backend = atpg_backend
        self.atpg_seed = atpg_seed

    def prepare(self) -> None:
        # The phases build their own derived state; compiling the netlist
        # here lets fork workers inherit the shared IR.
        get_compiled(self.netlist)

    def __getstate__(self):
        return self.__dict__.copy()

    def run_shard(self, task):
        """task = (shard id,) -> (shard id, classifications, phase
        runtimes, stats, patterns)."""
        from repro.atpg.engine import run_detection_phases

        (shard_id,) = task
        classifications, phase_runtimes, stats, patterns = \
            run_detection_phases(
                self.netlist, list(self.shards[shard_id]), self.effort,
                random_patterns=self.random_patterns,
                backtrack_limit=self.backtrack_limit, seed=self.seed,
                static_prune=self.static_prune,
                static_learning=self.static_learning,
                atpg_backend=self.atpg_backend, atpg_seed=self.atpg_seed)
        return shard_id, classifications, phase_runtimes, stats, patterns

    def run_faults(self, task):
        """task = (chunk id, fault tuple) -> same shape as :meth:`run_shard`.

        The work-stealing pool ships fault chunks inside the task instead
        of baking shard slices into the installed job, so one installed
        job (keyed by configuration only) serves every fault subset of the
        same netlist — warm re-use across calls.
        """
        from repro.atpg.engine import run_detection_phases

        chunk_id, chunk_faults = task
        classifications, phase_runtimes, stats, patterns = \
            run_detection_phases(
                self.netlist, list(chunk_faults), self.effort,
                random_patterns=self.random_patterns,
                backtrack_limit=self.backtrack_limit, seed=self.seed,
                static_prune=self.static_prune,
                static_learning=self.static_learning,
                atpg_backend=self.atpg_backend, atpg_seed=self.atpg_seed)
        return chunk_id, classifications, phase_runtimes, stats, patterns

    def run_escalation(self, task):
        """task = (shard id, fault tuple) — one slice of the merged abort
        frontier -> (shard id, improvements, patterns, runtimes, stats)."""
        from repro.atpg.engine import run_escalation_phase

        shard_id, shard_faults = task
        improvements, patterns, phase_runtimes, stats = run_escalation_phase(
            self.netlist, list(shard_faults),
            backtrack_limit=self.backtrack_limit, seed=self.seed,
            static_learning=self.static_learning,
            atpg_backend=self.atpg_backend, atpg_seed=self.atpg_seed)
        return shard_id, improvements, patterns, phase_runtimes, stats


# --------------------------------------------------------------------- #
# backend plumbing
# --------------------------------------------------------------------- #
#: Worker-side registry of installed jobs, keyed by a run token.  On a
#: fork backend the parent installs the job *before* the pool exists, so
#: children inherit it; on spawn backends the pool initializer installs a
#: pickled copy once per worker.
_WORKER_JOBS: Dict[int, object] = {}
_JOB_TOKENS = itertools.count(1)


def _install_job(token: int, job: object) -> None:
    _WORKER_JOBS[token] = job


def _invoke_worker(token: int, method: str, task) -> object:
    return getattr(_WORKER_JOBS[token], method)(task)


class _ShardRunner:
    """Maps job methods over task batches on the configured backend."""

    def __init__(self, backend: str, jobs: int) -> None:
        self.backend = backend
        self.jobs = max(1, jobs)
        self._pool = None
        self._token: Optional[int] = None
        self._job = None

    def start(self, job) -> "_ShardRunner":
        job.prepare()
        self._job = job
        if self.backend == "process":
            self._token = next(_JOB_TOKENS)
            methods = multiprocessing.get_all_start_methods()
            if "fork" in methods:
                # Install before the pool forks: children inherit the
                # prepared job (netlist, compiled IR, sites) copy-on-write.
                _install_job(self._token, job)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=multiprocessing.get_context("fork"))
            else:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_install_job,
                    initargs=(self._token, job))
        elif self.backend == "thread":
            self._pool = ThreadPoolExecutor(
                max_workers=self.jobs, thread_name_prefix="repro-shard")
        return self

    def map(self, method: str, tasks: Sequence) -> List:
        """Run ``job.method(task)`` for every task; unordered results."""
        if not tasks:
            return []
        if self._pool is None:  # serial
            bound = getattr(self._job, method)
            return [bound(task) for task in tasks]
        if self.backend == "thread":
            bound = getattr(self._job, method)
            return list(self._pool.map(bound, tasks))
        futures = [self._pool.submit(_invoke_worker, self._token, method,
                                     task)
                   for task in tasks]
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._token is not None:
            _WORKER_JOBS.pop(self._token, None)
            self._token = None
        self._job = None

    def __enter__(self) -> "_ShardRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def default_shard_count(jobs: int, n_faults: int) -> int:
    """Shards per run: a few per worker for balance, never more than faults."""
    return max(1, min(jobs * 4, n_faults))


# --------------------------------------------------------------------- #
# public engines
# --------------------------------------------------------------------- #
class ShardedFaultSimulator:
    """Drop-in parallel counterpart of :class:`FaultSimulator.run`.

    Partitions the fault population into cone-aware shards and runs the
    pattern windows as rounds over an executor backend, merging per-shard
    verdicts through a :class:`DetectionFrontier` after every round.
    Results — detected/undetected sets *and* the recorded detecting
    pattern indices, under both fault-dropping modes — are byte-identical
    to the serial compiled engine.
    """

    def __init__(self, netlist: Netlist, observe_state_inputs: bool = True,
                 state_input_roles: Optional[Sequence[str]] = None,
                 drop_detected: bool = True, word_size: int = 64, *,
                 jobs: Optional[int] = None,
                 backend: Optional[str] = None,
                 shards: Optional[int] = None,
                 pool=None,
                 chunk: Optional[int] = None) -> None:
        self.netlist = netlist
        self.observe_state_inputs = observe_state_inputs
        self.state_input_roles = (tuple(state_input_roles)
                                  if state_input_roles is not None else None)
        self.drop_detected = drop_detected
        self.word_size = word_size
        self.jobs = resolve_jobs(jobs)
        self.backend = resolve_backend(backend, self.jobs)
        self.shards = shards
        self.pool = pool
        self.chunk = chunk
        self.last_frontier: Optional[DetectionFrontier] = None

    def run(self, faults: Iterable[Fault],
            patterns: Sequence[Mapping[str, int]],
            drop_detected: Optional[bool] = None) -> FaultSimResult:
        drop = self.drop_detected if drop_detected is None else drop_detected
        fault_list = list(faults)
        compiled = get_compiled(self.netlist)
        observation_nets = frozenset(observation_net_names(
            self.netlist, self.observe_state_inputs, self.state_input_roles))
        pool_obj = _resolve_pool(self.pool, self.jobs)
        if pool_obj is not None:
            return self._run_pooled(pool_obj, fault_list, patterns, drop,
                                    compiled, observation_nets)
        n_shards = (self.shards if self.shards is not None
                    else default_shard_count(self.jobs, len(fault_list)))
        shards = partition_faults(self.netlist, fault_list, n_shards,
                                  compiled=compiled)
        job = _PlaneSimJob(self.netlist,
                           tuple(shard.faults for shard in shards),
                           observation_nets, patterns, self.word_size)

        frontier = DetectionFrontier()
        self.last_frontier = frontier
        result = FaultSimResult()
        remaining: List[List[int]] = [list(range(len(shard.faults)))
                                      for shard in shards]

        with _ShardRunner(self.backend, self.jobs).start(job) as runner:
            n_patterns = len(patterns)
            for start in range(0, n_patterns, self.word_size):
                tasks = [(shard.index, tuple(remaining[shard.index]), start)
                         for shard in shards if remaining[shard.index]]
                if not tasks:
                    break
                outcomes = sorted(runner.map("run_window", tasks),
                                  key=lambda item: item[0])
                for shard_id, hits in outcomes:
                    shard_faults = shards[shard_id].faults
                    for position, det in hits:
                        fault = shard_faults[position]
                        result.detected.add(fault)
                        if drop:
                            # First detecting pattern of the window.
                            pattern_index = (
                                start + (det & -det).bit_length() - 1)
                        else:
                            # Match the serial reference: keep simulating,
                            # record the *last* detecting pattern.
                            pattern_index = start + det.bit_length() - 1
                        result.detecting_pattern[fault] = pattern_index
                        frontier.publish(fault, pattern_index)
                if drop:
                    # Fault dropping through the frontier: every verdict
                    # published this round prunes all later rounds.
                    published = frontier.detected()
                    for shard in shards:
                        todo = remaining[shard.index]
                        if todo:
                            remaining[shard.index] = [
                                position for position in todo
                                if shard.faults[position] not in published]
        for shard in shards:
            result.undetected.update(shard.faults[position]
                                     for position in remaining[shard.index])
        return result

    def _run_pooled(self, pool, fault_list, patterns, drop, compiled,
                    observation_nets) -> FaultSimResult:
        """Work-stealing run over a persistent pool.

        One job (the full fault tuple as a single shard) is installed once
        per content key; cone-affine chunks pull pattern windows through
        the pool's deque, and each chunk advances to its next window as
        soon as its current one merges — fault dropping propagates
        mid-round instead of at a round barrier.  Each fault lives in
        exactly one chunk and every chunk walks the windows in order, so
        verdicts and detecting-pattern indices are byte-identical to
        serial whatever order workers steal chunks in.
        """
        from repro.runtime import build_chunks, content_key, default_chunk_size

        fault_tuple = tuple(fault_list)
        chunk_size = (self.chunk if self.chunk is not None
                      else default_chunk_size(pool.workers, len(fault_tuple)))
        chunks = build_chunks(self.netlist, fault_list, chunk_size,
                              compiled=compiled)
        key = content_key("planesim", self.netlist, self.word_size,
                          tuple(sorted(observation_nets)), fault_tuple,
                          list(patterns))
        pool.ensure_job(key, lambda: _PlaneSimJob(
            self.netlist, (fault_tuple,), observation_nets, patterns,
            self.word_size))
        frontier = DetectionFrontier()
        self.last_frontier = frontier
        result = FaultSimResult()
        n_patterns = len(patterns)
        remaining = {cid: list(positions)
                     for cid, positions in enumerate(chunks)}
        with pool.session(key) as run:
            for cid, positions in enumerate(chunks):
                if positions and n_patterns:
                    run.submit("run_window", (0, tuple(positions), 0),
                               tag=cid)
            for cid, task, outcome in run.results():
                start = task[2]
                _shard_id, hits = outcome
                dropped = set()
                for position, det in hits:
                    fault = fault_tuple[position]
                    result.detected.add(fault)
                    if drop:
                        # First detecting pattern of the window.
                        pattern_index = start + (det & -det).bit_length() - 1
                        dropped.add(position)
                    else:
                        # Keep simulating; later windows overwrite with the
                        # *last* detecting pattern, like the serial engine.
                        pattern_index = start + det.bit_length() - 1
                    result.detecting_pattern[fault] = pattern_index
                    frontier.publish(fault, pattern_index)
                todo = remaining[cid]
                if dropped:
                    todo = [position for position in todo
                            if position not in dropped]
                    remaining[cid] = todo
                next_start = start + self.word_size
                if todo and next_start < n_patterns:
                    run.submit("run_window", (0, tuple(todo), next_start),
                               tag=cid)
        for todo in remaining.values():
            result.undetected.update(fault_tuple[position]
                                     for position in todo)
        return result


def sharded_mission_grade(netlist: Netlist, faults: Iterable[Fault],
                          patterns, *,
                          observation_nets: Iterable[str],
                          word_size: int = 64,
                          drop_detected: bool = True,
                          jobs: Optional[int] = None,
                          backend: Optional[str] = None,
                          shards: Optional[int] = None,
                          frontier: Optional[DetectionFrontier] = None,
                          pool=None,
                          chunk: Optional[int] = None) -> Set[Fault]:
    """Sharded counterpart of :meth:`repro.sbst.grading.FaultGrader.grade`.

    ``patterns`` is a :class:`~repro.sbst.monitor.CapturedPatterns`-shaped
    object (``cycles`` + ``controllable_nets``); ``observation_nets`` is
    the exact observation-point set of the serial grader, so verdicts are
    identical by construction.  Returns the detected-fault set.
    """
    fault_list = list(faults)
    jobs = resolve_jobs(jobs)
    backend = resolve_backend(backend, jobs)
    compiled = get_compiled(netlist)

    from repro.sbst.monitor import pattern_windows

    windows = pattern_windows(patterns, word_size)

    pool_obj = _resolve_pool(pool, jobs)
    if pool_obj is not None:
        return _pooled_mission_grade(
            netlist, fault_list, windows,
            observation_nets=frozenset(observation_nets),
            word_size=word_size, drop_detected=drop_detected,
            frontier=frontier, pool=pool_obj,
            chunk=chunk, compiled=compiled)

    n_shards = (shards if shards is not None
                else default_shard_count(jobs, len(fault_list)))
    fault_shards = partition_faults(netlist, fault_list, n_shards,
                                    compiled=compiled)

    job = _WordGradeJob(netlist, tuple(shard.faults for shard in fault_shards),
                        frozenset(observation_nets), windows)
    frontier = frontier if frontier is not None else DetectionFrontier()
    detected: Set[Fault] = set()
    remaining: List[List[int]] = [list(range(len(shard.faults)))
                                  for shard in fault_shards]

    with _ShardRunner(backend, jobs).start(job) as runner:
        if drop_detected and len(frontier):
            # A caller-seeded frontier prunes before the first round too.
            published = frontier.detected()
            for shard in fault_shards:
                remaining[shard.index] = [
                    position for position in remaining[shard.index]
                    if shard.faults[position] not in published]
        for window_index in range(len(windows)):
            tasks = [(shard.index, tuple(remaining[shard.index]),
                      window_index)
                     for shard in fault_shards if remaining[shard.index]]
            if not tasks:
                break
            start = window_index * word_size
            for shard_id, hits in sorted(runner.map("run_window", tasks),
                                         key=lambda item: item[0]):
                if not hits:
                    continue
                shard_faults = fault_shards[shard_id].faults
                detected.update(shard_faults[position] for position in hits)
                frontier.publish_many(
                    (shard_faults[position], start) for position in hits)
            if drop_detected:
                # Fault dropping through the frontier — including entries a
                # caller pre-seeded to skip already-detected faults.
                published = frontier.detected()
                for shard in fault_shards:
                    todo = remaining[shard.index]
                    if todo:
                        remaining[shard.index] = [
                            position for position in todo
                            if shard.faults[position] not in published]
    return detected


def _pooled_mission_grade(netlist: Netlist, fault_list: List[Fault],
                          windows, *, observation_nets: frozenset,
                          word_size: int, drop_detected: bool,
                          frontier: Optional[DetectionFrontier],
                          pool, chunk: Optional[int],
                          compiled: CompiledNetlist) -> Set[Fault]:
    """Work-stealing mission grading over a persistent pool.

    Same chunked-window pipeline as the pooled fault simulator; detections
    publish ``(fault, window start)`` into the frontier exactly like the
    sharded path, and a caller-seeded frontier prunes before the first
    window, so verdicts match the serial grader byte for byte.
    """
    from repro.runtime import build_chunks, content_key, default_chunk_size

    fault_tuple = tuple(fault_list)
    chunk_size = (chunk if chunk is not None
                  else default_chunk_size(pool.workers, len(fault_tuple)))
    chunks = build_chunks(netlist, fault_list, chunk_size, compiled=compiled)
    key = content_key("wordgrade", netlist, tuple(sorted(observation_nets)),
                      fault_tuple, list(windows))
    pool.ensure_job(key, lambda: _WordGradeJob(
        netlist, (fault_tuple,), observation_nets, windows))
    frontier = frontier if frontier is not None else DetectionFrontier()
    detected: Set[Fault] = set()
    n_windows = len(windows)
    published = (frontier.detected()
                 if drop_detected and len(frontier) else {})
    remaining: Dict[int, List[int]] = {}
    with pool.session(key) as run:
        for cid, positions in enumerate(chunks):
            todo = [position for position in positions
                    if fault_tuple[position] not in published] \
                if published else list(positions)
            remaining[cid] = todo
            if todo and n_windows:
                run.submit("run_window", (0, tuple(todo), 0), tag=cid)
        for cid, task, outcome in run.results():
            window_index = task[2]
            _shard_id, hits = outcome
            todo = remaining[cid]
            if hits:
                start = window_index * word_size
                hit_faults = [fault_tuple[position] for position in hits]
                detected.update(hit_faults)
                frontier.publish_many((fault, start)
                                      for fault in hit_faults)
                if drop_detected:
                    hit_set = set(hits)
                    todo = [position for position in todo
                            if position not in hit_set]
                    remaining[cid] = todo
            next_window = window_index + 1
            if todo and next_window < n_windows:
                run.submit("run_window", (0, tuple(todo), next_window),
                           tag=cid)
    return detected


def sharded_classify(netlist: Netlist, faults: Iterable[Fault], *,
                     effort, jobs: Optional[int] = None,
                     backend: Optional[str] = None,
                     shards: Optional[int] = None,
                     random_patterns: int = 256,
                     backtrack_limit: int = 200,
                     seed: int = 2013,
                     static_prune: bool = True,
                     static_learning: bool = True,
                     atpg_backend: Optional[str] = None,
                     atpg_seed: Optional[int] = None,
                     pool=None,
                     chunk: Optional[int] = None):
    """Classify a fault population across shard workers.

    The netlist-global tied-value fixpoint runs exactly once, in the
    calling process (sharding it would repeat the global propagation per
    shard for no benefit — at TIE effort this function therefore costs
    the same as the serial engine and spawns no workers at all).  The
    faults it leaves unclassified go through the per-fault detection
    phases (seeded random patterns, the selected ATPG portfolio backend)
    on cone-aware shards across the worker backend.  Every verdict is
    batch-independent, so the merged report carries exactly the serial
    engine's classifications.  ``runtime_seconds`` is wall clock;
    per-phase runtimes are summed across shards (CPU seconds).

    For a backend with an escalation tier (``dalg``) the scheduler merges
    the per-shard abort frontiers after the primary round, re-partitions
    the merged frontier and fans out a second escalation round over the
    same installed job — so a fault aborted in one shard is escalated
    exactly once, no matter how the primary faults were sliced.
    """
    from repro.atpg.engine import (AtpgEffort, UntestabilityReport,
                                   resolve_effort)
    from repro.atpg.implication import ImplicationEngine
    from repro.atpg.portfolio import compact_patterns, resolve_atpg_backend
    from repro.atpg.tie_analysis import TieAnalysis
    from repro.faults.categories import FaultClass

    fault_list = list(faults)
    jobs = resolve_jobs(jobs)
    backend = resolve_backend(backend, jobs)
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

    pool_obj = _resolve_pool(pool, jobs)
    if pool_obj is not None:
        patterns = _pooled_classify_rounds(
            netlist, remaining, report, effort=effort,
            random_patterns=random_patterns,
            backtrack_limit=backtrack_limit, seed=seed,
            static_prune=static_prune, static_learning=static_learning,
            atpg_backend=atpg_backend, atpg_seed=atpg_seed,
            pool=pool_obj, chunk=chunk)
        report.stats["jobs_resolved"] = pool_obj.workers
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

    n_shards = (shards if shards is not None
                else default_shard_count(jobs, len(remaining)))
    fault_shards = partition_faults(netlist, remaining, n_shards)
    job = _DetectClassifyJob(netlist,
                             tuple(shard.faults for shard in fault_shards),
                             effort, random_patterns, backtrack_limit, seed,
                             static_prune, static_learning,
                             atpg_backend=atpg_backend, atpg_seed=atpg_seed)
    patterns: List[tuple] = []
    with _ShardRunner(backend, jobs).start(job) as runner:
        tasks = [(shard.index,) for shard in fault_shards]
        for (_shard_id, classifications, phase_runtimes, stats,
             shard_patterns) in sorted(runner.map("run_shard", tasks),
                                       key=lambda item: item[0]):
            report.classifications.update(classifications)
            patterns.extend(shard_patterns)
            for phase, seconds in phase_runtimes.items():
                report.phase_runtimes[phase] = (
                    report.phase_runtimes.get(phase, 0.0) + seconds)
            for key, count in stats.items():
                report.stats[key] = report.stats.get(key, 0) + count

        # Second round: merged abort frontier -> escalation tier.  The
        # frontier is collected in canonical (input) fault order and
        # re-partitioned, so the load balance adapts to where the aborts
        # actually landed.
        if (effort is AtpgEffort.FULL
                and resolve_atpg_backend(atpg_backend).escalates):
            frontier = [f for f in remaining
                        if report.classifications.get(f) is FaultClass.AU]
            if frontier:
                esc_shards = partition_faults(
                    netlist, frontier,
                    default_shard_count(jobs, len(frontier)))
                esc_tasks = [(shard.index, shard.faults)
                             for shard in esc_shards]
                for (_shard_id, improvements, esc_patterns, esc_runtimes,
                     esc_stats) in sorted(
                        runner.map("run_escalation", esc_tasks),
                        key=lambda item: item[0]):
                    report.classifications.update(improvements)
                    patterns.extend(esc_patterns)
                    for phase, seconds in esc_runtimes.items():
                        report.phase_runtimes[phase] = (
                            report.phase_runtimes.get(phase, 0.0) + seconds)
                    for key, count in esc_stats.items():
                        report.stats[key] = report.stats.get(key, 0) + count

    report.stats["jobs_resolved"] = jobs
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


def _pooled_classify_rounds(netlist: Netlist, remaining: List[Fault],
                            report, *, effort, random_patterns: int,
                            backtrack_limit: int, seed: int,
                            static_prune: bool, static_learning: bool,
                            atpg_backend: Optional[str],
                            atpg_seed: Optional[int],
                            pool, chunk: Optional[int]) -> List[tuple]:
    """Primary + escalation classification rounds over a persistent pool.

    The installed job is keyed by *configuration only* — fault chunks ride
    inside each task (:meth:`_DetectClassifyJob.run_faults`), so a warm
    pool re-uses the installed netlist and job across any fault subset.
    Results are collected completely and merged in chunk order, which
    keeps the report byte-identical to the static sharded path no matter
    which worker finished first.  Escalation re-fans the merged abort
    frontier out over the same installed job.
    """
    from repro.atpg.engine import AtpgEffort
    from repro.atpg.portfolio import resolve_atpg_backend
    from repro.faults.categories import FaultClass
    from repro.runtime import build_chunks, content_key, default_chunk_size

    key = content_key("classify", netlist, effort.name, random_patterns,
                      backtrack_limit, seed, static_prune, static_learning,
                      atpg_backend, atpg_seed)
    pool.ensure_job(key, lambda: _DetectClassifyJob(
        netlist, (), effort, random_patterns, backtrack_limit, seed,
        static_prune, static_learning, atpg_backend=atpg_backend,
        atpg_seed=atpg_seed))
    restarts_before = pool.stats["worker_restarts"]

    def fan_out(method: str, faults: List[Fault]) -> List[tuple]:
        chunk_size = (chunk if chunk is not None
                      else default_chunk_size(pool.workers, len(faults)))
        chunks = build_chunks(netlist, faults, chunk_size)
        outcomes = []
        with pool.session(key) as run:
            for cid, positions in enumerate(chunks):
                run.submit(method,
                           (cid, tuple(faults[position]
                                       for position in positions)),
                           tag=cid)
            for _tag, _task, outcome in run.results():
                outcomes.append(outcome)
        outcomes.sort(key=lambda item: item[0])
        return outcomes

    patterns: List[tuple] = []
    for (_cid, classifications, phase_runtimes, stats,
         chunk_patterns) in fan_out("run_faults", remaining):
        report.classifications.update(classifications)
        patterns.extend(chunk_patterns)
        for phase, seconds in phase_runtimes.items():
            report.phase_runtimes[phase] = (
                report.phase_runtimes.get(phase, 0.0) + seconds)
        for stat, count in stats.items():
            report.stats[stat] = report.stats.get(stat, 0) + count

    # Escalation round: the merged abort frontier, in canonical fault
    # order, re-fanned over the same warm job.
    if (effort is AtpgEffort.FULL
            and resolve_atpg_backend(atpg_backend).escalates):
        frontier = [f for f in remaining
                    if report.classifications.get(f) is FaultClass.AU]
        if frontier:
            for (_cid, improvements, esc_patterns, esc_runtimes,
                 esc_stats) in fan_out("run_escalation", frontier):
                report.classifications.update(improvements)
                patterns.extend(esc_patterns)
                for phase, seconds in esc_runtimes.items():
                    report.phase_runtimes[phase] = (
                        report.phase_runtimes.get(phase, 0.0) + seconds)
                for stat, count in esc_stats.items():
                    report.stats[stat] = report.stats.get(stat, 0) + count

    restarts = pool.stats["worker_restarts"] - restarts_before
    if restarts:
        report.stats["worker_restarts"] = (
            report.stats.get("worker_restarts", 0) + restarts)
    return patterns
