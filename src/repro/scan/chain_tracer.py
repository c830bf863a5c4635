"""Scan-chain tracing (the "ad-hoc tool able to trace the chain" of §4).

Starting from the scan-in ports (given explicitly, or discovered as the
input ports that structurally feed SI pins of scan cells), the tracer walks
the serial path — through any buffers and inverters — collecting, in order:

* the scan cells of every chain,
* the dedicated scan-path instances (buffers/inverters) between cells and
  towards the scan-out port,
* the scan-enable nets steering the capture muxes.

The result is exactly the information §3.1 needs to prune the scan-related
on-line functionally untestable faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.netlist.module import Netlist, Net, Pin


@dataclass
class ScanChain:
    """One traced scan chain."""

    scan_in_port: str
    cells: List[str] = field(default_factory=list)
    path_instances: List[str] = field(default_factory=list)
    scan_out_port: Optional[str] = None
    scan_enable_nets: Set[str] = field(default_factory=set)

    @property
    def length(self) -> int:
        return len(self.cells)


class ScanChainTracer:
    """Traces mux-scan chains structurally (no reliance on insertion metadata)."""

    _PASS_THROUGH_CELLS = {"BUF", "INV"}

    def __init__(self, netlist: Netlist,
                 scan_out_ports: Optional[Sequence[str]] = None) -> None:
        self.netlist = netlist
        # A scan cell's output usually feeds functional logic as well, and
        # that functional logic may itself reach output ports through
        # buffers.  To terminate chains on the *scan-out* port (and not on a
        # functional port), the tracer prefers: next SI pin > known scan-out
        # port > any other output port.  Known scan-out ports come from the
        # caller, from the scan-insertion annotation, or from the
        # conventional "scan_out*" port-name prefix.
        if scan_out_ports is not None:
            self.known_scan_outs = set(scan_out_ports)
        else:
            annotation = netlist.annotations.get("scan_insertion", {})
            self.known_scan_outs = set(annotation.get("scan_out_ports", []))
            if not self.known_scan_outs:
                self.known_scan_outs = {
                    p for p in netlist.output_ports() if p.startswith("scan_out")
                }

    # ------------------------------------------------------------------ #
    def discover_scan_in_ports(self) -> List[str]:
        """Input ports that structurally reach an SI pin of a scan cell."""
        candidates: List[str] = []
        for port in self.netlist.input_ports():
            hit, _, _ = self._follow_serial(self.netlist.net(port), set())
            if hit is not None:
                candidates.append(port)
        return candidates

    def discover_scan_enable_nets(self) -> Set[str]:
        """Nets driving the scan-enable pin of at least one scan cell."""
        nets: Set[str] = set()
        for inst in self.netlist.sequential_instances():
            se_pin_name = inst.cell.role_pin("scan_enable")
            if se_pin_name is None:
                continue
            pin = inst.pin(se_pin_name)
            if pin.net is not None:
                nets.add(pin.net.name)
        return nets

    # ------------------------------------------------------------------ #
    def _follow_serial(self, net: Net, visited: Set[str]
                       ) -> Tuple[Optional[Pin], List[str], Optional[str]]:
        """Follow a net towards the next SI pin.

        Returns ``(si_pin, path_instance_names, scan_out_port)``; exactly one
        of ``si_pin`` / ``scan_out_port`` is non-None when the walk reaches a
        scan cell or an output port; both are None if the path dies out.
        Buffers/inverters traversed on the way are returned in order.

        A scan cell's output typically also feeds functional logic (and may
        reach functional output ports through buffers), so a continuation
        ending at the next SI pin is always preferred over one ending at an
        output port; a port is only reported as the scan-out when no SI pin
        is reachable at all.
        """
        if net.name in visited:
            return None, [], None
        visited.add(net.name)

        for pin in net.loads:
            cell = pin.instance.cell
            if cell.sequential and cell.role_pin("scan_in") == pin.port:
                return pin, [], None

        port_result: Optional[Tuple[Optional[Pin], List[str], Optional[str]]] = None
        for pin in net.loads:
            inst = pin.instance
            if inst.cell.name in self._PASS_THROUGH_CELLS:
                out_pin = inst.output_pins()[0]
                if out_pin.net is None:
                    continue
                si_pin, path, so_port = self._follow_serial(out_pin.net, visited)
                if si_pin is not None:
                    return si_pin, [inst.name] + path, None
                if so_port is not None:
                    candidate = (None, [inst.name] + path, so_port)
                    if so_port in self.known_scan_outs:
                        port_result = candidate
                    elif port_result is None:
                        port_result = candidate

        if net.is_output_port:
            candidate = (None, [], net.name)
            if net.name in self.known_scan_outs:
                return candidate
            if port_result is None:
                port_result = candidate
        if port_result is not None:
            return port_result
        return None, [], None

    def trace_chain(self, scan_in_port: str) -> ScanChain:
        """Trace one chain starting from a scan-in input port."""
        chain = ScanChain(scan_in_port=scan_in_port)
        net = self.netlist.net(scan_in_port)
        seen_cells: Set[str] = set()

        while True:
            si_pin, path, so_port = self._follow_serial(net, set())
            chain.path_instances.extend(path)
            if so_port is not None:
                chain.scan_out_port = so_port
                break
            if si_pin is None:
                break
            inst = si_pin.instance
            if inst.name in seen_cells:
                break  # defensive: malformed chain with a loop
            seen_cells.add(inst.name)
            chain.cells.append(inst.name)

            se_pin_name = inst.cell.role_pin("scan_enable")
            if se_pin_name is not None:
                se_pin = inst.pin(se_pin_name)
                if se_pin.net is not None:
                    chain.scan_enable_nets.add(se_pin.net.name)

            scan_out_pin_name = inst.cell.role_pin("scan_out") or inst.cell.role_pin("state_output")
            out_pin = inst.pin(scan_out_pin_name)
            if out_pin.net is None:
                break
            net = out_pin.net

        return chain

    def trace(self, scan_in_ports: Optional[Sequence[str]] = None) -> List[ScanChain]:
        """Trace every chain; discovers the scan-in ports if not given."""
        ports = list(scan_in_ports) if scan_in_ports is not None else self.discover_scan_in_ports()
        return [self.trace_chain(port) for port in ports]


def trace_scan_chains(netlist: Netlist,
                      scan_in_ports: Optional[Sequence[str]] = None) -> List[ScanChain]:
    """Convenience wrapper around :class:`ScanChainTracer`."""
    return ScanChainTracer(netlist).trace(scan_in_ports)
