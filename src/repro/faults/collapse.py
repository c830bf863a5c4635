"""Structural equivalence collapsing, delegated to the fault model.

The paper reports *uncollapsed* fault counts (that is what TetraMax prints by
default for coverage figures), but collapsing is a standard ATPG front-end
step and is used here for the ablation study: the on-line untestable fraction
is essentially unchanged whether counted on the collapsed or uncollapsed
universe.

Which faults are structurally equivalent depends on the fault model, so the
rules live with the model (:meth:`repro.faults.models.FaultModel
.equivalence_pairs`) and this module only runs the generic union-find:

* **stuck-at** — the classic gate-level equivalences: a gate-input fault
  that forces the controlled output value collapses onto the output fault
  (AND: in s-a-0 ≡ out s-a-0; NAND: in s-a-0 ≡ out s-a-1; ...), buffers and
  inverters collapse through (the inverter flipping polarity), and a
  fanout-free net merges its driver- and single-load-pin faults;
* **transition-delay** — only buffer/inverter chains (inverter swapping
  slow-to-rise with slow-to-fall) and fanout-free stem/branch pairs: the
  controlling-value rules are unsound once the two-pattern initialization
  condition is accounted for, so the same netlist collapses differently
  under the two models.

Class membership and representatives are deterministic: identical inputs
(netlist, fault order, model) produce identical classes in identical order,
independent of hash randomization.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.faults.faultlist import FaultList
from repro.faults.models import Fault, FaultModel, model_of, resolve_fault_model
from repro.netlist.module import Netlist


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[Fault, Fault] = {}

    def find(self, x: Fault) -> Fault:
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: Fault, b: Fault) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def equivalence_classes(netlist: Netlist, faults: Iterable[Fault],
                        model: Optional[FaultModel] = None
                        ) -> Dict[Fault, List[Fault]]:
    """Group faults into structural equivalence classes.

    Returns a mapping from class representative to the members of its
    class, in the order the faults were supplied.  Only faults present in
    ``faults`` participate.  ``model`` defaults to the model owning the
    first fault (every generated fault list is single-model).
    """
    ordered = list(dict.fromkeys(faults))
    present = set(ordered)
    if model is None:
        model = model_of(ordered[0]) if ordered else resolve_fault_model(None)

    uf = _UnionFind()
    for fault in ordered:
        uf.find(fault)
    for a, b in model.equivalence_pairs(netlist):
        if a in present and b in present:
            uf.union(a, b)

    classes: Dict[Fault, List[Fault]] = {}
    for fault in ordered:
        classes.setdefault(uf.find(fault), []).append(fault)
    return classes


def collapse_fault_list(netlist: Netlist, fault_list: FaultList,
                        model: Optional[FaultModel] = None) -> FaultList:
    """Return a collapsed fault list containing one representative per class."""
    classes = equivalence_classes(netlist, fault_list.faults(), model=model)
    return FaultList(classes, netlist_name=fault_list.netlist_name)
