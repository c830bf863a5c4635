"""Debug unused-observation-logic analysis (paper §3.2.2).

Procedure:

1. disconnect (leave floating) all CPU outputs related to debug  →
   :func:`repro.manipulation.disconnect.disconnect_output_port` on a clone;
2. run the structural-untestability engine;
3. the faults that became untestable — they can only ever reach the floating
   debug outputs — are on-line functionally untestable due to reduced
   observability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.atpg.engine import AtpgEffort, StructuralUntestabilityEngine
from repro.debug.interface import DebugInterface, discover_debug_interface
from repro.faults.fault import StuckAtFault
from repro.faults.faultlist import generate_fault_list
from repro.manipulation.disconnect import disconnect_output_port
from repro.netlist.module import Netlist


@dataclass
class DebugObserveResult:
    """Outcome of the §3.2.2 analysis."""

    floated_ports: List[str] = field(default_factory=list)
    untestable: Set[StuckAtFault] = field(default_factory=set)
    baseline_untestable: Set[StuckAtFault] = field(default_factory=set)
    engine_runtime_seconds: float = 0.0

    @property
    def newly_untestable(self) -> Set[StuckAtFault]:
        return self.untestable - self.baseline_untestable

    def counts(self) -> Dict[str, int]:
        return {
            "floated_ports": len(self.floated_ports),
            "untestable": len(self.untestable),
            "newly_untestable": len(self.newly_untestable),
        }


def identify_debug_observe_untestable(netlist: Netlist,
                                      interface: Optional[DebugInterface] = None,
                                      faults: Optional[Iterable[StuckAtFault]] = None,
                                      baseline_untestable: Optional[Set[StuckAtFault]] = None,
                                      effort: AtpgEffort = AtpgEffort.TIE,
                                      jobs: int = 1,
                                      static_learning: bool = True,
                                      atpg_backend: Optional[str] = None
                                      ) -> DebugObserveResult:
    """Identify the on-line untestable faults caused by floating debug outputs."""
    interface = interface or discover_debug_interface(netlist)
    if interface is None or not interface.observation_outputs:
        return DebugObserveResult(baseline_untestable=set(baseline_untestable or ()))

    fault_universe = list(faults) if faults is not None else generate_fault_list(netlist).faults()
    if baseline_untestable is None:
        from repro.core.debug_control import compute_baseline_untestable
        baseline_untestable = compute_baseline_untestable(
            netlist, fault_universe, effort, jobs=jobs,
            static_learning=static_learning, atpg_backend=atpg_backend)

    manipulated = netlist.clone(f"{netlist.name}_debug_floated")
    floated: List[str] = []
    for port in interface.observation_outputs:
        if port in manipulated.ports and manipulated.ports[port] == "output":
            disconnect_output_port(manipulated, port,
                                   reason="debug observation (debugger disconnected)")
            floated.append(port)

    engine = StructuralUntestabilityEngine(manipulated, effort=effort,
                                           jobs=jobs,
                                           static_learning=static_learning,
                                           atpg_backend=atpg_backend)
    report = engine.classify(fault_universe)

    return DebugObserveResult(
        floated_ports=floated,
        untestable=set(report.untestable),
        baseline_untestable=set(baseline_untestable),
        engine_runtime_seconds=report.runtime_seconds,
    )
