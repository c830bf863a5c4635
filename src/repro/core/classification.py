"""Fault-universe categories and their containment relations (paper Fig. 1).

Figure 1 of the paper arranges the stuck-at fault universe of the on-line
scenario into nested categories::

    on-line fault universe
      ⊇ on-line functionally untestable
          ⊇ functionally untestable
              ⊇ structurally untestable

with the on-line detectable faults being the complement of the on-line
functionally untestable set.  :func:`build_fault_universe` computes concrete
instances of these sets for a netlist so the relationship can be checked and
reported (the ``fig1`` benchmark regenerates the figure's data).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.atpg.engine import AtpgEffort, StructuralUntestabilityEngine
from repro.faults.categories import FaultClass
from repro.faults.fault import StuckAtFault
from repro.faults.faultlist import FaultList, generate_fault_list
from repro.netlist.module import Netlist


@dataclass
class FaultUniverse:
    """The nested fault categories of Fig. 1 for one processor core."""

    all_faults: Set[StuckAtFault] = field(default_factory=set)
    structurally_untestable: Set[StuckAtFault] = field(default_factory=set)
    functionally_untestable: Set[StuckAtFault] = field(default_factory=set)
    online_functionally_untestable: Set[StuckAtFault] = field(default_factory=set)

    @property
    def online_detectable(self) -> Set[StuckAtFault]:
        """Complement of the on-line functionally untestable set."""
        return self.all_faults - self.online_functionally_untestable

    def containment_holds(self) -> bool:
        """Check the subset chain of Fig. 1."""
        return (self.structurally_untestable <= self.functionally_untestable
                and self.functionally_untestable <= self.online_functionally_untestable
                and self.online_functionally_untestable <= self.all_faults)

    def counts(self) -> Dict[str, int]:
        return {
            "all": len(self.all_faults),
            "structurally_untestable": len(self.structurally_untestable),
            "functionally_untestable": len(self.functionally_untestable),
            "online_functionally_untestable": len(self.online_functionally_untestable),
            "online_detectable": len(self.online_detectable),
        }


def build_fault_universe(original: Netlist,
                         functional_constraints: Optional[Dict[str, int]] = None,
                         online_untestable: Optional[Iterable[StuckAtFault]] = None,
                         effort: AtpgEffort = AtpgEffort.TIE,
                         static_learning: bool = True) -> FaultUniverse:
    """Compute the Fig. 1 categories for a netlist.

    Parameters
    ----------
    original:
        The unmanipulated netlist — its untestable faults are the
        *structurally untestable* set.
    functional_constraints:
        Net values that can never be produced by any instruction sequence
        (e.g. a reset port that is never asserted functionally).  The faults
        untestable under these constraints approximate the *functionally
        untestable* set.
    online_untestable:
        The on-line functionally untestable faults found by the flow; the
        structural and functional sets are folded into it so the Fig. 1
        containment holds by construction (they are genuinely untestable in
        the on-line scenario too).
    """
    fault_list = generate_fault_list(original)
    universe = FaultUniverse(all_faults=set(fault_list.faults()))

    engine = StructuralUntestabilityEngine(original, effort=effort,
                                           static_learning=static_learning)
    baseline = engine.classify(fault_list.faults())
    universe.structurally_untestable = set(baseline.untestable)

    if functional_constraints:
        constrained = original.clone(f"{original.name}_functional_view")
        for net, value in functional_constraints.items():
            constrained.net(net).tied = value
        func_engine = StructuralUntestabilityEngine(constrained, effort=effort,
                                                    static_learning=static_learning)
        func_report = func_engine.classify(fault_list.faults())
        universe.functionally_untestable = (
            set(func_report.untestable) | universe.structurally_untestable
        )
    else:
        universe.functionally_untestable = set(universe.structurally_untestable)

    online = set(online_untestable) if online_untestable is not None else set()
    universe.online_functionally_untestable = (
        online | universe.functionally_untestable
    )
    return universe
