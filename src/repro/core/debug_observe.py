"""Debug unused-observation-logic analysis (paper §3.2.2).

Procedure:

1. disconnect (leave floating) all CPU outputs related to debug  →
   :func:`repro.manipulation.disconnect.disconnect_output_port` on a clone;
2. run the structural-untestability engine;
3. the faults that became untestable — they can only ever reach the floating
   debug outputs — are on-line functionally untestable due to reduced
   observability.

Steps 2–3 and the clone are the shared manipulate–classify–subtract step,
:func:`repro.core.classification.classify_manipulated`; this module
supplies the disconnections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set

from repro.atpg.engine import AtpgEffort
from repro.core.classification import ManipulationResult, classify_manipulated
from repro.debug.interface import DebugInterface, discover_debug_interface
from repro.faults.fault import StuckAtFault
from repro.manipulation.disconnect import disconnect_output_port
from repro.netlist.module import Netlist


@dataclass
class DebugObserveResult(ManipulationResult):
    """Outcome of the §3.2.2 analysis."""

    floated_ports: List[str] = field(default_factory=list)


def identify_debug_observe_untestable(netlist: Netlist,
                                      interface: Optional[DebugInterface] = None,
                                      faults: Optional[Iterable[StuckAtFault]] = None,
                                      baseline_untestable: Optional[Set[StuckAtFault]] = None,
                                      effort: AtpgEffort = AtpgEffort.TIE,
                                      jobs: int = 1,
                                      atpg_backend: Optional[str] = None
                                      ) -> DebugObserveResult:
    """Identify the on-line untestable faults caused by floating debug outputs."""
    interface = interface or discover_debug_interface(netlist)
    if interface is None or not interface.observation_outputs:
        return DebugObserveResult(baseline_untestable=set(baseline_untestable or ()))
    result = DebugObserveResult()

    def float_outputs(manipulated: Netlist) -> bool:
        for port in interface.observation_outputs:
            if port in manipulated.ports and manipulated.ports[port] == "output":
                disconnect_output_port(manipulated, port,
                                       reason="debug observation (debugger disconnected)")
                result.floated_ports.append(port)
        return True

    return classify_manipulated(
        netlist, float_outputs, result, faults, baseline_untestable,
        suffix="_debug_floated", effort=effort, jobs=jobs,
        atpg_backend=atpg_backend)
