"""The structural-untestability engine — this package's stand-in for TetraMax.

The engine classifies a fault list against a (possibly manipulated) netlist
in up to three phases, selected by :class:`AtpgEffort`:

1. **TIE** — tied-value analysis (:class:`repro.atpg.tie_analysis.TieAnalysis`):
   linear-time, sound identification of UT/UB/UO faults.  This is the phase
   the paper's flow relies on ("untestable due to tied value - UT").
2. **RANDOM** — a burst of bit-parallel random patterns marks easily
   detectable faults DT, shrinking the population the expensive phase sees.
3. **FULL** — PODEM on every remaining unclassified fault: proves redundancy
   (UU), finds a test (DT), or gives up (AU) at the backtrack limit.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional

from repro.atpg.podem import PodemStatus
from repro.atpg.random_patterns import random_pattern_detection
from repro.atpg.tie_analysis import TieAnalysis
from repro.faults.categories import FaultClass
from repro.faults.models import Fault
from repro.netlist.module import Netlist


class AtpgEffort(str, Enum):
    """How much work the engine spends per fault."""

    TIE = "tie"
    RANDOM = "random"
    FULL = "full"


def resolve_effort(effort: object,
                   default: Optional[AtpgEffort] = None) -> Optional[AtpgEffort]:
    """Coerce an effort spec (enum member, string or None) to an enum member.

    ``None`` resolves to ``default``; strings are matched case-insensitively
    against the enum values.  Unknown efforts raise a :class:`ValueError`
    spelling the accepted values.
    """
    if effort is None:
        return default
    if isinstance(effort, AtpgEffort):
        return effort
    try:
        return AtpgEffort(str(effort).strip().lower())
    except ValueError:
        names = ", ".join(e.value for e in AtpgEffort)
        raise ValueError(
            f"unknown ATPG effort {effort!r}; expected one of: {names}"
        ) from None


@dataclass
class UntestabilityReport:
    """Classification outcome for one engine run."""

    effort: AtpgEffort
    classifications: Dict[Fault, FaultClass] = field(default_factory=dict)
    runtime_seconds: float = 0.0
    phase_runtimes: Dict[str, float] = field(default_factory=dict)
    #: Search statistics: faults proven statically (total and per proof
    #: category), PODEM invocations, backtracks, learned-implication skips.
    stats: Dict[str, int] = field(default_factory=dict)
    #: Compacted test patterns (FULL effort only): each entry carries the
    #: cube(s), the faults it is credited with and its detection count, in
    #: steepest-coverage-first order.  See
    #: :func:`repro.atpg.portfolio.compact_patterns`.
    patterns: List[Dict[str, object]] = field(default_factory=list)
    #: The dynamic-compaction trace (generated / kept / merged / dropped
    #: counts plus capped per-pattern events).
    compaction: Dict[str, object] = field(default_factory=dict)

    def with_class(self, *classes: FaultClass) -> List[Fault]:
        wanted = set(classes)
        return [f for f, c in self.classifications.items() if c in wanted]

    @property
    def untestable(self) -> List[Fault]:
        return [f for f, c in self.classifications.items() if c.is_untestable]

    @property
    def detected(self) -> List[Fault]:
        return [f for f, c in self.classifications.items() if c.is_detected]

    def counts(self) -> Dict[str, int]:
        result: Dict[str, int] = {}
        for cls in self.classifications.values():
            result[cls.value] = result.get(cls.value, 0) + 1
        return result


def run_detection_phases(netlist: Netlist, faults: List[Fault],
                         effort: AtpgEffort, *,
                         random_patterns: int = 256,
                         backtrack_limit: int = 200,
                         seed: int = 2013,
                         static_learning: bool = True,
                         atpg_backend: Optional[str] = None):
    """Phases 2-3 of the engine: random-pattern detection, then ATPG.

    Operates on faults the tied-value analysis left unclassified.  Every
    verdict is per-fault (the random phase replays one seeded pattern
    burst, the ATPG backend searches per fault), so the result is
    independent of how the fault list is batched — which is what lets
    :meth:`StructuralUntestabilityEngine.classify` run the tie fixpoint
    once and farm only these phases out to pool workers.

    At FULL effort the static-analysis layer (:mod:`repro.analysis`) joins
    in: its prover classifies faults UU *before* any search, and with
    ``static_learning`` (the default) the remaining searches consult the
    learned implications and SCOAP guidance; turning learning off
    reproduces the plain search bit-for-bit (the oracle path).

    ``atpg_backend`` selects the portfolio strategy for the search phase
    (:mod:`repro.atpg.portfolio`; ``None`` is the classic ``podem``).

    Returns ``(classifications, phase_runtimes, stats, patterns)`` where
    ``patterns`` is the canonical-order list of ``(fault, pattern,
    init_pattern)`` triples for the faults the search detected.
    """
    classifications: Dict[Fault, FaultClass] = {}
    phase_runtimes: Dict[str, float] = {}
    stats: Dict[str, int] = Counter()
    patterns: List[tuple] = []
    remaining = list(faults)

    if effort in (AtpgEffort.RANDOM, AtpgEffort.FULL) and remaining:
        phase_start = time.perf_counter()
        detected = random_pattern_detection(
            netlist, remaining, n_patterns=random_patterns, seed=seed)
        classifications.update(dict.fromkeys(detected, FaultClass.DT))
        remaining = [f for f in remaining if f not in detected]
        phase_runtimes["random"] = time.perf_counter() - phase_start

    if effort is AtpgEffort.FULL and remaining:
        from repro.analysis import get_static_analysis

        phase_start = time.perf_counter()
        static = get_static_analysis(netlist)
        phase_runtimes["static_build"] = time.perf_counter() - phase_start

        # The prover settles faults PODEM can abort on at this backtrack
        # limit (on tiny's memory-map netlist, 32 of the 62 faults it
        # proves beyond tie analysis), so it runs before every search,
        # with or without learning.
        phase_start = time.perf_counter()
        unproven: List[Fault] = []
        for fault in remaining:
            proof = static.prove(fault)
            if proof is None:
                unproven.append(fault)
                continue
            classifications[fault] = FaultClass.UU
            stats["static_proved"] += 1
            stats[f"static_proved_{proof.category}"] += 1
        remaining = unproven
        phase_runtimes["static_prove"] = time.perf_counter() - phase_start

        phase_start = time.perf_counter()
        from repro.atpg.portfolio import resolve_atpg_backend

        backend = resolve_atpg_backend(atpg_backend)
        run = backend.start(
            netlist, backtrack_limit=backtrack_limit,
            static=static if static_learning else None)
        backtracks = 0
        for fault in remaining:
            result = run.generate(fault)
            backtracks += result.backtracks
            if result.status is PodemStatus.DETECTED:
                classifications[fault] = FaultClass.DT
                patterns.append((fault, result.pattern, result.init_pattern))
            elif result.status is PodemStatus.UNTESTABLE:
                classifications[fault] = FaultClass.UU
            else:
                classifications[fault] = FaultClass.AU
        phase_runtimes["podem"] = time.perf_counter() - phase_start
        stats["podem_calls"] = len(remaining)
        stats["podem_backtracks"] = backtracks
        if static_learning:
            stats["learned_skips"] = run.learned_skips

    return classifications, phase_runtimes, stats, patterns


def run_escalation_phase(netlist: Netlist, faults: List[Fault], *,
                         backtrack_limit: int = 200,
                         static_learning: bool = True,
                         atpg_backend: Optional[str] = None):
    """Re-attack aborted (AU) faults with the backend's escalation tier.

    A no-op for backends without one (``escalates`` false).  Like the
    primary phases every verdict is per-fault, so running it over the
    merged abort frontier inline or in a second fan-out round produces
    identical improvements.

    Returns ``(improvements, phase_runtimes, stats, patterns)`` — the
    shape of :func:`run_detection_phases` — where ``improvements`` maps
    escalated faults to their new class (DT or UU) and ``patterns`` carries
    the ``(fault, pattern, init_pattern)`` triples of newly detected faults.
    """
    from repro.analysis import get_static_analysis
    from repro.atpg.portfolio import resolve_atpg_backend

    improvements: Dict[Fault, FaultClass] = {}
    patterns: List[tuple] = []
    phase_runtimes: Dict[str, float] = {}
    stats: Dict[str, int] = Counter()
    backend = resolve_atpg_backend(atpg_backend)
    if not backend.escalates or not faults:
        return improvements, phase_runtimes, stats, patterns

    phase_start = time.perf_counter()
    run = backend.start(
        netlist, backtrack_limit=backtrack_limit,
        static=get_static_analysis(netlist) if static_learning else None)
    for fault in faults:
        result = run.escalate(fault)
        if result is None:
            continue
        if result.status is PodemStatus.DETECTED:
            improvements[fault] = FaultClass.DT
            patterns.append((fault, result.pattern, result.init_pattern))
            stats["escalation_detected"] += 1
        elif result.status is PodemStatus.UNTESTABLE:
            improvements[fault] = FaultClass.UU
            stats["escalation_proved_uu"] += 1
    stats["escalated"] = len(faults)
    phase_runtimes["escalation"] = time.perf_counter() - phase_start
    return improvements, phase_runtimes, stats, patterns


@dataclass
class DetectionPhases:
    """The per-fault phases of one engine configuration.

    Both rounds of :meth:`StructuralUntestabilityEngine.classify` call one
    of its two methods on a fault chunk: inline as a single chunk, or as
    the installed pool job, one cone-affine chunk per task.  It pickles
    as plain settings (the pool ships its ``netlist`` separately), so one
    installed job serves every fault subset of the same configuration.
    """

    netlist: Netlist
    effort: AtpgEffort
    random_patterns: int
    backtrack_limit: int
    seed: int
    static_learning: bool
    atpg_backend: Optional[str]

    def run_faults(self, faults):
        """Random patterns then ATPG -> :func:`run_detection_phases`."""
        return run_detection_phases(
            self.netlist, list(faults), self.effort,
            random_patterns=self.random_patterns,
            backtrack_limit=self.backtrack_limit, seed=self.seed,
            static_learning=self.static_learning,
            atpg_backend=self.atpg_backend)

    def run_escalation(self, faults):
        """Re-attack aborts -> :func:`run_escalation_phase`."""
        return run_escalation_phase(
            self.netlist, list(faults),
            backtrack_limit=self.backtrack_limit,
            static_learning=self.static_learning,
            atpg_backend=self.atpg_backend)


class StructuralUntestabilityEngine:
    """Classifies stuck-at faults of a netlist (TetraMax-style).

    ``jobs`` > 1 (or an injected :class:`~repro.runtime.WorkerPool` as
    ``pool``) runs the per-fault phases on the worker pool
    (:class:`repro.simulation.sharded.PooledPhases`), one cone-affine chunk
    per task; the merged report carries exactly the serial
    classifications.  With the default ``jobs=1`` they run inline.
    ``static_learning=False`` is the plain-search oracle that tests and
    the ``static_learning`` bench stage compare learning against; the
    flow always learns.
    """

    def __init__(self, netlist: Netlist,
                 effort: AtpgEffort = AtpgEffort.TIE,
                 random_patterns: int = 256,
                 backtrack_limit: int = 200,
                 seed: int = 2013,
                 jobs: int = 1,
                 static_learning: bool = True,
                 atpg_backend: Optional[str] = None,
                 pool=None) -> None:
        from repro.simulation.sharded import resolve_jobs

        self.netlist = netlist
        self.effort = resolve_effort(effort, AtpgEffort.TIE)
        self.phases = DetectionPhases(
            netlist, self.effort, random_patterns, backtrack_limit, seed,
            static_learning, atpg_backend)
        self.jobs = resolve_jobs(1 if jobs is None else jobs, cap=False)
        self.pool = pool

    def classify(self, faults: Iterable[Fault]) -> UntestabilityReport:
        """Classify the given faults; unclassified faults are omitted from the
        report at TIE effort and reported NC/AU/DT at higher efforts.

        The tied-value fixpoint runs once, here, so TIE effort never starts
        a worker; the faults it leaves go through the per-fault phases,
        inline or pooled.  Pooled per-phase runtimes are summed across
        chunks (CPU seconds).  An escalating backend re-attacks the merged
        abort frontier in a second round.
        """
        fault_list = list(faults)
        report = UntestabilityReport(effort=self.effort)
        start = time.perf_counter()

        # Phase 1: tied-value analysis.
        phase_start = time.perf_counter()
        tie_result = TieAnalysis(self.netlist).run(fault_list)
        report.classifications.update(tie_result.classifications)
        report.phase_runtimes["tie"] = time.perf_counter() - phase_start

        remaining = [f for f in fault_list if f not in report.classifications]
        if self.effort is AtpgEffort.TIE or not remaining:
            report.runtime_seconds = time.perf_counter() - start
            return report

        pooled = None
        if (self.jobs > 1 or self.pool is not None) and len(fault_list) > 1:
            from repro.simulation.sharded import PooledPhases

            pooled = PooledPhases(self.phases, jobs=self.jobs, pool=self.pool)
        run = self._run_inline if pooled is None else pooled.run
        patterns: List[tuple] = []

        def merge(outcomes) -> None:
            for classifications, runtimes, stats, found in outcomes:
                report.classifications.update(classifications)
                patterns.extend(found)
                for phase, seconds in runtimes.items():
                    report.phase_runtimes[phase] = (
                        report.phase_runtimes.get(phase, 0.0) + seconds)
                for stat, count in stats.items():
                    report.stats[stat] = report.stats.get(stat, 0) + count

        merge(run("run_faults", remaining))
        if self.effort is AtpgEffort.FULL:
            from repro.atpg.portfolio import resolve_atpg_backend

            # The merged abort frontier, in canonical fault order.
            frontier: List[Fault] = []
            if resolve_atpg_backend(self.phases.atpg_backend).escalates:
                frontier = [f for f in remaining
                            if report.classifications.get(f) is FaultClass.AU]
            merge(run("run_escalation", frontier))
        if pooled is not None:
            report.stats.update(pooled.stats())

        if self.effort is AtpgEffort.FULL and patterns:
            from repro.atpg.portfolio import compact_patterns

            phase_start = time.perf_counter()
            order = {fault: i for i, fault in enumerate(remaining)}
            patterns.sort(key=lambda entry: order[entry[0]])
            report.patterns, report.compaction = compact_patterns(
                self.netlist, patterns)
            report.phase_runtimes["compaction"] = (time.perf_counter()
                                                   - phase_start)

        report.runtime_seconds = time.perf_counter() - start
        return report

    def _run_inline(self, method: str, faults: List[Fault]) -> List[tuple]:
        """One phase method over the whole list, as a single chunk."""
        return [getattr(self.phases, method)(faults)]
