"""Netlist traversal: the topological order of the combinational view.

All structural analyses (ATPG, fault simulation, observability reachability)
work on the *combinational view* of the netlist: sequential cell outputs act
as pseudo-primary inputs and sequential cell inputs act as pseudo-primary
outputs.  :func:`topological_instances` orders that view; the compiled IR
(:mod:`repro.netlist.compiled`) is levelised from it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from repro.netlist.module import Instance, Netlist


class CombinationalLoopError(Exception):
    """Raised when the combinational portion of a netlist contains a cycle."""


def topological_instances(netlist: Netlist) -> List[Instance]:
    """Topological order of the *combinational* instances.

    Sequential instances are treated as graph sources/sinks: their outputs
    feed the combinational network but they impose no ordering constraint
    themselves.  Raises :class:`CombinationalLoopError` on a combinational
    cycle.
    """
    comb = netlist.combinational_instances()
    in_degree: Dict[str, int] = {}
    dependents: Dict[str, List[Instance]] = {}

    for inst in comb:
        count = 0
        for pin in inst.input_pins():
            net = pin.net
            if net is None or net.is_input_port:
                continue
            driver = net.driver
            if driver is not None and not driver.instance.is_sequential:
                count += 1
                dependents.setdefault(driver.instance.name, []).append(inst)
        in_degree[inst.name] = count

    ready = deque(inst for inst in comb if in_degree[inst.name] == 0)
    order: List[Instance] = []
    while ready:
        inst = ready.popleft()
        order.append(inst)
        for dep in dependents.get(inst.name, ()):
            in_degree[dep.name] -= 1
            if in_degree[dep.name] == 0:
                ready.append(dep)

    if len(order) != len(comb):
        unresolved = [n for n, d in in_degree.items() if d > 0]
        raise CombinationalLoopError(
            f"combinational loop involving {len(unresolved)} instance(s), "
            f"e.g. {unresolved[:5]}"
        )
    return order
