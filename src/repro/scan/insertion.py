"""Mux-scan insertion.

Replaces every plain D flip-flop of a netlist with a mux-scan flip-flop
(SDFF/SDFFR), stitches the cells into one or more scan chains, connects a
shared scan-enable port and exposes scan-in/scan-out ports — i.e. it builds
exactly the structure §3.1 of the paper reasons about.  Dedicated buffers are
inserted on the serial path between consecutive cells so that the "buffers
and inverters on the scan path" fault population discussed in the paper is
present in generated designs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.netlist.module import INPUT, Netlist


_SCANNABLE = {
    "DFF": "SDFF",
    "DFFR": "SDFFR",
}


@dataclass
class ScanInsertionResult:
    """What the insertion pass created."""

    chains: List[List[str]] = field(default_factory=list)
    scan_enable_port: str = "scan_enable"
    scan_in_ports: List[str] = field(default_factory=list)
    scan_out_ports: List[str] = field(default_factory=list)
    path_buffers: List[str] = field(default_factory=list)

    @property
    def total_cells(self) -> int:
        return sum(len(chain) for chain in self.chains)


def insert_scan(netlist: Netlist,
                n_chains: int = 1,
                scan_enable_port: str = "scan_enable",
                scan_in_prefix: str = "scan_in",
                scan_out_prefix: str = "scan_out",
                buffer_every: int = 4,
                flop_order: Optional[Sequence[str]] = None) -> ScanInsertionResult:
    """Insert mux-scan cells and stitch scan chains in place.

    Parameters
    ----------
    n_chains:
        Number of balanced scan chains to build.
    buffer_every:
        Insert a dedicated scan-path buffer after every N cells (0 disables).
    flop_order:
        Optional explicit stitch order (instance names); defaults to the
        netlist's iteration order of scannable flip-flops.
    """
    scannable = [
        inst for inst in netlist.instances.values()
        if inst.cell.name in _SCANNABLE
    ]
    if flop_order is not None:
        by_name = {inst.name: inst for inst in scannable}
        scannable = [by_name[name] for name in flop_order]
    if not scannable:
        return ScanInsertionResult(scan_enable_port=scan_enable_port)

    n_chains = max(1, min(n_chains, len(scannable)))

    if scan_enable_port not in netlist.ports:
        netlist.add_port(scan_enable_port, INPUT)

    result = ScanInsertionResult(scan_enable_port=scan_enable_port)

    # Replace each plain flop with its scan version, preserving connections.
    replaced: List[str] = []
    for inst in scannable:
        connections = {
            port: pin.net.name for port, pin in inst.pins.items() if pin.net is not None
        }
        name = inst.name
        netlist.remove_instance(name)
        scan_cell = _SCANNABLE[inst.cell.name]
        connections["SE"] = scan_enable_port
        # SI is stitched below; leave it unconnected for now.
        netlist.add_instance(name, scan_cell, connections)
        replaced.append(name)

    # Split into chains and stitch.
    chain_size = (len(replaced) + n_chains - 1) // n_chains
    buffer_count = 0
    for chain_index in range(n_chains):
        members = replaced[chain_index * chain_size:(chain_index + 1) * chain_size]
        if not members:
            continue
        si_port = f"{scan_in_prefix}{chain_index}"
        so_port = f"{scan_out_prefix}{chain_index}"
        netlist.add_port(si_port, INPUT)
        so_net = netlist.add_port(so_port, "output")

        previous_net = si_port
        for position, name in enumerate(members):
            inst = netlist.instance(name)
            netlist.connect(inst.pin("SI"), previous_net)
            q_net = inst.pin("Q").net
            if q_net is None:
                q_net = netlist.get_or_create_net(f"{name}_q")
                netlist.connect(inst.pin("Q"), q_net.name)
            previous_net = q_net.name

            if buffer_every and (position + 1) % buffer_every == 0 and position + 1 < len(members):
                buf_name = f"scanbuf_{chain_index}_{buffer_count}"
                buf_net = f"{buf_name}_y"
                netlist.add_instance(buf_name, "BUF",
                                     {"A": previous_net, "Y": buf_net})
                result.path_buffers.append(buf_name)
                buffer_count += 1
                previous_net = buf_net

        # Tail buffer driving the scan-out port (observation-only logic).
        tail_name = f"scanbuf_{chain_index}_out"
        netlist.add_instance(tail_name, "BUF",
                             {"A": previous_net, "Y": so_net.name})
        result.path_buffers.append(tail_name)

        result.chains.append(members)
        result.scan_in_ports.append(si_port)
        result.scan_out_ports.append(so_port)

    netlist.annotations["scan_insertion"] = {
        "chains": result.chains,
        "scan_enable_port": scan_enable_port,
        "scan_in_ports": result.scan_in_ports,
        "scan_out_ports": result.scan_out_ports,
        "path_buffers": result.path_buffers,
    }
    return result
