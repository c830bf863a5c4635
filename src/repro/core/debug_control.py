"""Debug unused-control-logic analysis (paper §3.2.1).

Procedure (verbatim from the paper, mapped onto this library):

1. connect to ground or Vdd all CPU inputs related to debug and showing a
   constant value in the field  →  :func:`repro.manipulation.tie.tie_port`
   on a clone of the core;
2. run any EDA tool able to identify structural untestable faults  →
   :class:`repro.atpg.engine.StructuralUntestabilityEngine`;
3. remove the identified faults from the fault list  →  the caller prunes
   the returned set.

Steps 2–3 and the clone are the shared manipulate–classify–subtract step,
:func:`repro.core.classification.classify_manipulated`; this module
supplies the ties.

The faults already untestable in the unmanipulated core (the baseline) are
subtracted so only the *newly* untestable population — the on-line
functionally untestable faults caused by the mission-constant debug inputs —
is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set

from repro.atpg.engine import AtpgEffort
from repro.core.classification import ManipulationResult, classify_manipulated
from repro.debug.interface import DebugInterface, discover_debug_interface
from repro.faults.fault import StuckAtFault
from repro.manipulation.tie import tie_port
from repro.netlist.module import Netlist


@dataclass
class DebugControlResult(ManipulationResult):
    """Outcome of the §3.2.1 analysis."""

    tied_ports: Dict[str, int] = field(default_factory=dict)


def identify_debug_control_untestable(netlist: Netlist,
                                      interface: Optional[DebugInterface] = None,
                                      faults: Optional[Iterable[StuckAtFault]] = None,
                                      baseline_untestable: Optional[Set[StuckAtFault]] = None,
                                      effort: AtpgEffort = AtpgEffort.TIE,
                                      jobs: int = 1,
                                      atpg_backend: Optional[str] = None
                                      ) -> DebugControlResult:
    """Identify the on-line untestable faults caused by mission-constant
    debug control inputs."""
    interface = interface or discover_debug_interface(netlist)
    if interface is None or not interface.control_inputs:
        return DebugControlResult(baseline_untestable=set(baseline_untestable or ()))
    result = DebugControlResult()

    def tie_controls(manipulated: Netlist) -> bool:
        for port, value in interface.control_inputs.items():
            if port in manipulated.ports:
                tie_port(manipulated, port, value, reason="debug control (mission constant)")
                result.tied_ports[port] = value
        return True

    return classify_manipulated(
        netlist, tie_controls, result, faults, baseline_untestable,
        suffix="_debug_tied", effort=effort, jobs=jobs,
        atpg_backend=atpg_backend)
