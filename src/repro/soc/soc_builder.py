"""SoC assembly: CPU core + scan insertion + mission environment.

:func:`build_soc` produces the object the identification flow consumes: the
processor-core netlist (with scan inserted, as in the industrial case study),
the mission memory map and the debug-interface specification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.debug.interface import DebugInterface, discover_debug_interface
from repro.memory.memory_map import MemoryMap
from repro.netlist.module import Netlist
from repro.netlist.validate import check_netlist
from repro.scan.insertion import ScanInsertionResult, insert_scan
from repro.soc.config import SoCConfig
from repro.soc.cpu import build_cpu_core


@dataclass
class SoC:
    """A generated system-on-chip view: the core plus its mission context."""

    config: SoCConfig
    cpu: Netlist
    memory_map: MemoryMap
    debug_interface: Optional[DebugInterface]
    scan: Optional[ScanInsertionResult] = None

    @property
    def name(self) -> str:
        return self.cpu.name

    def stats(self) -> Dict[str, int]:
        stats = self.cpu.stats()
        stats["scan_cells"] = self.scan.total_cells if self.scan else 0
        stats["scan_chains"] = len(self.scan.chains) if self.scan else 0
        return stats

    def structural_problems(self) -> List[str]:
        """Netlist sanity check (unconnected SI pins are expected pre-scan)."""
        return check_netlist(self.cpu, allow_floating_inputs=False)


def build_soc(config: Optional[SoCConfig] = None) -> SoC:
    """Generate a complete SoC view from a configuration (default: date13)."""
    config = config or SoCConfig.date13()
    cpu = build_cpu_core(config.cpu)

    scan_result: Optional[ScanInsertionResult] = None
    if config.insert_scan:
        scan_result = insert_scan(
            cpu,
            n_chains=config.cpu.scan_chains,
            buffer_every=config.cpu.scan_buffer_every,
        )

    memory_map = config.resolved_memory_map()
    cpu.annotations["memory_map"] = memory_map

    debug_interface = discover_debug_interface(cpu)

    return SoC(
        config=config,
        cpu=cpu,
        memory_map=memory_map,
        debug_interface=debug_interface,
        scan=scan_result,
    )
