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
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional

from repro.atpg.implication import ImplicationEngine
from repro.atpg.podem import PodemStatus
from repro.atpg.random_patterns import random_pattern_detection
from repro.atpg.tie_analysis import TieAnalysis
from repro.faults.categories import FaultClass
from repro.faults.models import Fault
from repro.faults.faultlist import FaultList
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
    independent of how the fault list is batched — which is what lets the
    sharded classifier (:func:`repro.simulation.sharded.sharded_classify`)
    run the tie fixpoint once and farm only these phases out to workers.

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
    stats: Dict[str, int] = {}
    patterns: List[tuple] = []
    remaining = list(faults)

    if effort in (AtpgEffort.RANDOM, AtpgEffort.FULL) and remaining:
        phase_start = time.perf_counter()
        detected = random_pattern_detection(
            netlist, remaining, n_patterns=random_patterns, seed=seed)
        for fault in detected:
            classifications[fault] = FaultClass.DT
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
            stats["static_proved"] = stats.get("static_proved", 0) + 1
            key = f"static_proved_{proof.category}"
            stats[key] = stats.get(key, 0) + 1
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
        stats["podem_calls"] = stats.get("podem_calls", 0) + len(remaining)
        stats["podem_backtracks"] = (stats.get("podem_backtracks", 0)
                                     + backtracks)
        if static_learning:
            stats["learned_skips"] = (stats.get("learned_skips", 0)
                                      + run.learned_skips)

    return classifications, phase_runtimes, stats, patterns


def run_escalation_phase(netlist: Netlist, faults: List[Fault], *,
                         backtrack_limit: int = 200,
                         static_learning: bool = True,
                         atpg_backend: Optional[str] = None):
    """Re-attack aborted (AU) faults with the backend's escalation tier.

    A no-op for backends without one (``escalates`` false).  Like the
    primary phases every verdict is per-fault, so the serial engine and the
    sharded classifier — which runs this over the *merged* abort frontier
    in a second fan-out round — produce identical improvements.

    Returns ``(improvements, patterns, phase_runtimes, stats)`` where
    ``improvements`` maps escalated faults to their new class (DT or UU)
    and ``patterns`` carries the ``(fault, pattern, init_pattern)`` triples
    of newly detected faults.
    """
    from repro.atpg.portfolio import resolve_atpg_backend

    improvements: Dict[Fault, FaultClass] = {}
    patterns: List[tuple] = []
    phase_runtimes: Dict[str, float] = {}
    stats: Dict[str, int] = {}
    backend = resolve_atpg_backend(atpg_backend)
    if not backend.escalates or not faults:
        return improvements, patterns, phase_runtimes, stats

    phase_start = time.perf_counter()
    static = None
    if static_learning:
        from repro.analysis import get_static_analysis

        static = get_static_analysis(netlist)
    run = backend.start(netlist, backtrack_limit=backtrack_limit,
                        static=static)
    for fault in faults:
        result = run.escalate(fault)
        if result is None:
            continue
        if result.status is PodemStatus.DETECTED:
            improvements[fault] = FaultClass.DT
            patterns.append((fault, result.pattern, result.init_pattern))
            stats["escalation_detected"] = (
                stats.get("escalation_detected", 0) + 1)
        elif result.status is PodemStatus.UNTESTABLE:
            improvements[fault] = FaultClass.UU
            stats["escalation_proved_uu"] = (
                stats.get("escalation_proved_uu", 0) + 1)
    stats["escalated"] = len(faults)
    phase_runtimes["escalation"] = time.perf_counter() - phase_start
    return improvements, patterns, phase_runtimes, stats


class StructuralUntestabilityEngine:
    """Classifies stuck-at faults of a netlist (TetraMax-style).

    ``jobs`` > 1 (or an injected :class:`~repro.runtime.WorkerPool` as
    ``pool``) runs the per-fault phases on the worker pool
    (:func:`repro.simulation.sharded.sharded_classify`): each cone-affine
    chunk runs the same phase stack and the merged report carries exactly
    the serial classifications.  With the default ``jobs=1`` the engine
    is the serial reference.
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
        self.effort = effort
        self.random_patterns = random_patterns
        self.backtrack_limit = backtrack_limit
        self.seed = seed
        self.jobs = resolve_jobs(1 if jobs is None else jobs, cap=False)
        self.static_learning = static_learning
        self.atpg_backend = atpg_backend
        self.pool = pool
        self.implication = ImplicationEngine(netlist)

    def classify(self, faults: Iterable[Fault]) -> UntestabilityReport:
        """Classify the given faults; unclassified faults are omitted from the
        report at TIE effort and reported NC/AU/DT at higher efforts."""
        fault_list = list(faults)
        if (self.jobs > 1 or self.pool is not None) and len(fault_list) > 1:
            from repro.simulation.sharded import sharded_classify

            return sharded_classify(
                self.netlist, fault_list, effort=self.effort,
                jobs=self.jobs, random_patterns=self.random_patterns,
                backtrack_limit=self.backtrack_limit, seed=self.seed,
                static_learning=self.static_learning,
                atpg_backend=self.atpg_backend, pool=self.pool)
        report = UntestabilityReport(effort=self.effort)
        start = time.perf_counter()

        # Phase 1: tied-value analysis.
        phase_start = time.perf_counter()
        tie = TieAnalysis(self.netlist, self.implication)
        tie_result = tie.run(fault_list)
        report.classifications.update(tie_result.classifications)
        report.phase_runtimes["tie"] = time.perf_counter() - phase_start

        remaining = [f for f in fault_list if f not in report.classifications]
        classifications, phase_runtimes, stats, patterns = run_detection_phases(
            self.netlist, remaining, self.effort,
            random_patterns=self.random_patterns,
            backtrack_limit=self.backtrack_limit, seed=self.seed,
            static_learning=self.static_learning,
            atpg_backend=self.atpg_backend)
        report.classifications.update(classifications)
        report.phase_runtimes.update(phase_runtimes)
        report.stats.update(stats)

        if self.effort is AtpgEffort.FULL:
            frontier = [f for f in remaining
                        if report.classifications.get(f) is FaultClass.AU]
            improvements, esc_patterns, esc_runtimes, esc_stats = \
                run_escalation_phase(
                    self.netlist, frontier,
                    backtrack_limit=self.backtrack_limit,
                    static_learning=self.static_learning,
                    atpg_backend=self.atpg_backend)
            report.classifications.update(improvements)
            report.phase_runtimes.update(esc_runtimes)
            for key, value in esc_stats.items():
                report.stats[key] = report.stats.get(key, 0) + value
            patterns = patterns + esc_patterns

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

    def classify_fault_list(self, fault_list: FaultList,
                            only_unclassified: bool = True) -> UntestabilityReport:
        """Classify a :class:`FaultList` in place and return the report."""
        faults = (fault_list.unclassified() if only_unclassified
                  else fault_list.faults())
        report = self.classify(faults)
        for fault, cls in report.classifications.items():
            fault_list.classify(fault, cls)
        return report
