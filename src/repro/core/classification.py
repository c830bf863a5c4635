"""The manipulate–classify–subtract step and the Fig. 1 fault categories.

Every source of on-line untestability in §3 is found by one procedure:
tie or float some signals on a copy of the core, run the structural
untestability engine, and keep the faults it finds beyond the baseline of
the unmanipulated core.  :func:`classify_manipulated` is that procedure;
the analyses in :mod:`repro.core.debug_control`,
:mod:`repro.core.debug_observe` and :mod:`repro.core.memory_analysis`
supply only the manipulation and its :class:`ManipulationResult`.

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

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterable, Optional, Set

from repro.atpg.engine import AtpgEffort, StructuralUntestabilityEngine
from repro.faults.fault import StuckAtFault
from repro.faults.faultlist import generate_fault_list, resolve_faults
from repro.netlist.module import Netlist


@dataclass
class ManipulationResult:
    """Outcome of one manipulate–classify–subtract run.

    Subclasses add only the collections their manipulation records (tied
    ports, floated ports, ...); :meth:`counts` reports each one's size.
    """

    untestable: Set[StuckAtFault] = field(default_factory=set)
    baseline_untestable: Set[StuckAtFault] = field(default_factory=set)
    engine_runtime_seconds: float = 0.0

    @property
    def newly_untestable(self) -> Set[StuckAtFault]:
        return self.untestable - self.baseline_untestable

    def counts(self) -> Dict[str, int]:
        shared = {f.name for f in fields(ManipulationResult)}
        counts = {f.name: len(getattr(self, f.name))
                  for f in fields(self) if f.name not in shared}
        counts.update(untestable=len(self.untestable),
                      newly_untestable=len(self.newly_untestable))
        return counts


def compute_baseline_untestable(netlist: Netlist,
                                faults: Optional[Iterable[StuckAtFault]] = None,
                                effort: AtpgEffort = AtpgEffort.TIE,
                                jobs: int = 1,
                                atpg_backend: Optional[str] = None
                                ) -> Set[StuckAtFault]:
    """Faults untestable in the unmanipulated netlist (structural baseline)."""
    fault_universe = resolve_faults(netlist, faults)
    engine = StructuralUntestabilityEngine(netlist, effort=effort, jobs=jobs,
                                           atpg_backend=atpg_backend)
    return set(engine.classify(fault_universe).untestable)


def classify_manipulated(netlist: Netlist,
                         manipulate: Callable[[Netlist], bool],
                         result: ManipulationResult,
                         faults: Optional[Iterable[StuckAtFault]] = None,
                         baseline_untestable: Optional[Set[StuckAtFault]] = None,
                         *, suffix: str, **engine) -> ManipulationResult:
    """Manipulate a clone of ``netlist``, classify it, fill ``result``.

    ``manipulate`` ties or floats signals on the clone (named ``netlist.name
    + suffix``) and records them on ``result``; returning ``False`` skips
    the engine.  ``engine`` holds the engine's keywords.
    """
    fault_universe = resolve_faults(netlist, faults)
    if baseline_untestable is None:
        baseline_untestable = compute_baseline_untestable(
            netlist, fault_universe, **engine)
    result.baseline_untestable = set(baseline_untestable)
    manipulated = netlist.clone(f"{netlist.name}{suffix}")
    if manipulate(manipulated) is False:
        return result
    report = StructuralUntestabilityEngine(manipulated, **engine).classify(
        fault_universe)
    result.untestable = set(report.untestable)
    result.engine_runtime_seconds = report.runtime_seconds
    return result


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
                         effort: AtpgEffort = AtpgEffort.TIE) -> FaultUniverse:
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

    def constrain(constrained: Netlist) -> bool:
        for net, value in (functional_constraints or {}).items():
            constrained.net(net).tied = value
        return bool(functional_constraints)

    view = classify_manipulated(
        original, constrain, ManipulationResult(), fault_list.faults(),
        suffix="_functional_view", effort=effort)
    universe.structurally_untestable = view.baseline_untestable
    universe.functionally_untestable = view.untestable | view.baseline_untestable

    online = set(online_untestable) if online_untestable is not None else set()
    universe.online_functionally_untestable = (
        online | universe.functionally_untestable
    )
    return universe
