"""Float (disconnect) output ports — circuit manipulation step 2 (§3.2.2).

When the external debugger is removed, the CPU outputs that only ever fed the
debug equipment are left floating; faults whose effects can only reach those
outputs become on-line functionally untestable.  We model this by marking
the ports unobservable rather than ripping them out of the netlist.
"""

from __future__ import annotations

from typing import List

from repro.netlist.module import Netlist


def disconnect_output_port(netlist: Netlist, port_name: str, reason: str = "") -> None:
    """Mark an output port as unobservable (left floating in the field)."""
    if port_name not in netlist.ports:
        raise KeyError(f"port {port_name!r} not found on module {netlist.name!r}")
    if netlist.ports[port_name] != "output":
        raise ValueError(f"port {port_name!r} is not an output port")
    netlist.unobservable_ports.add(port_name)
    records: List[dict] = netlist.annotations.setdefault("float_records", [])
    records.append({"port": port_name, "reason": reason})
