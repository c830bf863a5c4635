"""Debug unused-control-logic analysis (paper §3.2.1).

Procedure (verbatim from the paper, mapped onto this library):

1. connect to ground or Vdd all CPU inputs related to debug and showing a
   constant value in the field  →  :func:`repro.manipulation.tie.tie_port`
   on a clone of the core;
2. run any EDA tool able to identify structural untestable faults  →
   :class:`repro.atpg.engine.StructuralUntestabilityEngine`;
3. remove the identified faults from the fault list  →  the caller prunes
   the returned set.

The faults already untestable in the unmanipulated core (the baseline) are
subtracted so only the *newly* untestable population — the on-line
functionally untestable faults caused by the mission-constant debug inputs —
is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set

from repro.atpg.engine import AtpgEffort, StructuralUntestabilityEngine
from repro.debug.interface import DebugInterface, discover_debug_interface
from repro.faults.fault import StuckAtFault
from repro.faults.faultlist import generate_fault_list
from repro.manipulation.tie import tie_port
from repro.netlist.module import Netlist


@dataclass
class DebugControlResult:
    """Outcome of the §3.2.1 analysis."""

    tied_ports: Dict[str, int] = field(default_factory=dict)
    untestable: Set[StuckAtFault] = field(default_factory=set)
    baseline_untestable: Set[StuckAtFault] = field(default_factory=set)
    engine_runtime_seconds: float = 0.0

    @property
    def newly_untestable(self) -> Set[StuckAtFault]:
        return self.untestable - self.baseline_untestable

    def counts(self) -> Dict[str, int]:
        return {
            "tied_ports": len(self.tied_ports),
            "untestable": len(self.untestable),
            "newly_untestable": len(self.newly_untestable),
        }


def compute_baseline_untestable(netlist: Netlist,
                                faults: Optional[Iterable[StuckAtFault]] = None,
                                effort: AtpgEffort = AtpgEffort.TIE,
                                jobs: int = 1,
                                static_learning: bool = True,
                                atpg_backend: Optional[str] = None
                                ) -> Set[StuckAtFault]:
    """Faults untestable in the unmanipulated netlist (structural baseline)."""
    fault_universe = list(faults) if faults is not None else generate_fault_list(netlist).faults()
    engine = StructuralUntestabilityEngine(netlist, effort=effort, jobs=jobs,
                                           static_learning=static_learning,
                                           atpg_backend=atpg_backend)
    report = engine.classify(fault_universe)
    return set(report.untestable)


def identify_debug_control_untestable(netlist: Netlist,
                                      interface: Optional[DebugInterface] = None,
                                      faults: Optional[Iterable[StuckAtFault]] = None,
                                      baseline_untestable: Optional[Set[StuckAtFault]] = None,
                                      effort: AtpgEffort = AtpgEffort.TIE,
                                      jobs: int = 1,
                                      static_learning: bool = True,
                                      atpg_backend: Optional[str] = None
                                      ) -> DebugControlResult:
    """Identify the on-line untestable faults caused by mission-constant
    debug control inputs."""
    interface = interface or discover_debug_interface(netlist)
    if interface is None or not interface.control_inputs:
        return DebugControlResult(baseline_untestable=set(baseline_untestable or ()))

    fault_universe = list(faults) if faults is not None else generate_fault_list(netlist).faults()
    if baseline_untestable is None:
        baseline_untestable = compute_baseline_untestable(
            netlist, fault_universe, effort, jobs=jobs,
            static_learning=static_learning, atpg_backend=atpg_backend)

    manipulated = netlist.clone(f"{netlist.name}_debug_tied")
    tied: Dict[str, int] = {}
    for port, value in interface.control_inputs.items():
        if port in manipulated.ports:
            tie_port(manipulated, port, value, reason="debug control (mission constant)")
            tied[port] = value

    engine = StructuralUntestabilityEngine(manipulated, effort=effort,
                                           jobs=jobs,
                                           static_learning=static_learning,
                                           atpg_backend=atpg_backend)
    report = engine.classify(fault_universe)

    return DebugControlResult(
        tied_ports=tied,
        untestable=set(report.untestable),
        baseline_untestable=set(baseline_untestable),
        engine_runtime_seconds=report.runtime_seconds,
    )
