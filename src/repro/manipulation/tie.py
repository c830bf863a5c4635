"""Tie nets to fixed logic values (circuit manipulation step 1).

Tieing is recorded directly on the :class:`~repro.netlist.module.Net`
(``net.tied``) and in the netlist annotation ``"tie_records"`` so reports can
explain *why* each net was tied (debug control, memory map, scan enable...).
Simulation, implication and ATPG all honour ``net.tied``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.netlist.cells import LOGIC_0, LOGIC_1
from repro.netlist.module import Netlist


@dataclass(frozen=True)
class TieRecord:
    """Audit record of one tie operation."""

    net: str
    value: int
    reason: str = ""


def _records(netlist: Netlist) -> List[TieRecord]:
    return netlist.annotations.setdefault("tie_records", [])  # type: ignore[return-value]


def tie_net(netlist: Netlist, net_name: str, value: int, reason: str = "") -> TieRecord:
    """Force ``net_name`` to a constant logic value."""
    if value not in (LOGIC_0, LOGIC_1):
        raise ValueError(f"tie value must be 0 or 1, got {value!r}")
    net = netlist.net(net_name)
    net.tied = value
    record = TieRecord(net_name, value, reason)
    _records(netlist).append(record)
    return record


def tie_port(netlist: Netlist, port_name: str, value: int, reason: str = "") -> TieRecord:
    """Tie a module port (checks the port exists first)."""
    if port_name not in netlist.ports:
        raise KeyError(f"port {port_name!r} not found on module {netlist.name!r}")
    return tie_net(netlist, port_name, value, reason)


def tied_nets(netlist: Netlist) -> Dict[str, int]:
    """All currently tied nets and their values."""
    return {name: net.tied for name, net in netlist.nets.items() if net.tied is not None}
