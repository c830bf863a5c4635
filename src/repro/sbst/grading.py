"""Functional fault grading of SBST programs and the coverage-gain experiment.

The paper's practical pay-off is that pruning the on-line functionally
untestable faults from the fault list raises the reported SBST fault
coverage by roughly the pruned fraction (~13.8 % on the industrial SoC).
:class:`FaultGrader` reproduces that comparison: it fault-grades captured
functional patterns against the core with mission-mode observability (the
memory bus only, like the paper's evaluation) and reports the coverage with
and without OLFU pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Set, Union

from repro.faults.models import Fault, FaultModel, resolve_fault_model
from repro.faults.faultlist import resolve_faults
from repro.netlist.module import Netlist
from repro.sbst.monitor import CapturedPatterns, pattern_windows
from repro.simulation.parallel import ParallelPatternSimulator
from repro.simulation.sharded import resolve_jobs, sharded_mission_grade
from repro.simulation.simulator import MISSION_CAPTURE_ROLES


@dataclass
class CoverageComparison:
    """Fault coverage before and after pruning on-line untestable faults."""

    total_faults: int
    detected: int
    pruned: int
    detected_after_pruning: int

    @property
    def coverage_before(self) -> float:
        return self.detected / self.total_faults if self.total_faults else 0.0

    @property
    def coverage_after(self) -> float:
        denominator = self.total_faults - self.pruned
        return (self.detected_after_pruning / denominator) if denominator else 0.0

    @property
    def coverage_gain(self) -> float:
        return self.coverage_after - self.coverage_before

    def summary(self) -> str:
        return (f"coverage {self.coverage_before:.1%} -> {self.coverage_after:.1%} "
                f"(+{self.coverage_gain:.1%}) after pruning "
                f"{self.pruned:,}/{self.total_faults:,} on-line untestable faults")


class FaultGrader:
    """Grades functional patterns against a core with mission-mode observability.

    Grading runs the two-valued word engine
    (:class:`~repro.simulation.parallel.ParallelPatternSimulator`) with
    fault dropping across the pattern windows: once any window detects a
    fault, the fault leaves the simulation for all subsequent windows.
    Dropping changes only the cost, never the detected set.

    ``jobs`` > 1 (or an injected :class:`~repro.runtime.WorkerPool` as
    ``pool``) runs :meth:`grade` on the pool
    (:func:`~repro.simulation.sharded.sharded_mission_grade`): the fault
    population is cut into cone-affine chunks, each graded over every
    pattern window by one worker task through the same window loop
    (:func:`~repro.simulation.parallel.detect_windows`) as the serial
    path, so the detected-fault set is identical.
    """

    def __init__(self, netlist: Netlist, observe_state_inputs: bool = True,
                 word_size: int = 64, jobs: int = 1,
                 fault_model: "Union[str, FaultModel, None]" = None,
                 pool=None) -> None:
        # Mission-mode observation: the system-bus outputs plus the values
        # captured into the architectural state (a captured error eventually
        # propagates to memory over the following cycles of the self-test
        # program, so observing the flip-flop inputs approximates multi-cycle
        # propagation, a single-time-frame approximation that may count an
        # effect the mission never stores; README, "SBST fault grading").
        # The debug-only observation buses are explicitly excluded: in the
        # field no debugger reads them.
        self.netlist = netlist
        self.word_size = word_size
        self.jobs = resolve_jobs(1 if jobs is None else jobs, cap=False)
        self.pool = pool
        #: Model used to enumerate the default fault universe when a grade
        #: call does not bring its own fault list.
        self.fault_model = resolve_fault_model(fault_model)
        exclude: set = set(netlist.unobservable_ports)
        debug_spec = netlist.annotations.get("debug_interface")
        if isinstance(debug_spec, dict):
            exclude.update(debug_spec.get("observation_outputs", []))
        # Scan-out pins are never observed during the mission either.
        scan_spec = netlist.annotations.get("scan_insertion", {})
        exclude.update(scan_spec.get("scan_out_ports", []))
        # Only capture through functional pins (D, reset) counts: a fault
        # effect reaching a scan SI/SE or debug DI/DE pin is never stored
        # into architectural state once the tester/debugger is gone, so it
        # must not count as mission-mode detection.
        self.simulator = ParallelPatternSimulator(
            netlist, observe_state_inputs=observe_state_inputs,
            exclude_output_ports=exclude,
            state_input_roles=MISSION_CAPTURE_ROLES)

    # ------------------------------------------------------------------ #
    def grade(self, patterns: CapturedPatterns,
              faults: Optional[Iterable[Fault]] = None) -> Set[Fault]:
        """Return the faults detected by the captured functional patterns.

        Model-generic: two-pattern faults treat the captured cycle stream
        as consecutive launch-on-capture pairs (across window boundaries
        too), so the verdicts are independent of ``word_size``.
        """
        fault_universe = resolve_faults(self.netlist, faults, self.fault_model)
        if self.jobs > 1 or self.pool is not None:
            return sharded_mission_grade(
                self.netlist, fault_universe, patterns,
                observation_nets=self.simulator.observation_nets,
                word_size=self.word_size, jobs=self.jobs, pool=self.pool)
        windows = pattern_windows(patterns, self.word_size)
        return self.simulator.run_windows(fault_universe, windows)

    # ------------------------------------------------------------------ #
    def compare_with_pruning(self, patterns: CapturedPatterns,
                             online_untestable: Set[Fault],
                             faults: Optional[Iterable[Fault]] = None
                             ) -> CoverageComparison:
        """Coverage with the full fault list vs. the OLFU-pruned fault list."""
        fault_universe = resolve_faults(self.netlist, faults, self.fault_model)
        detected = self.grade(patterns, fault_universe)
        pruned_set = set(online_untestable) & set(fault_universe)
        detected_after = detected - pruned_set
        return CoverageComparison(
            total_faults=len(fault_universe),
            detected=len(detected),
            pruned=len(pruned_set),
            detected_after_pruning=len(detected_after),
        )
