"""Memory-map on-line untestable fault analysis (paper §3.3).

Procedure:

1. from the mission memory map, determine which address bits can never change
   (:func:`repro.memory.analysis.constant_address_bits`);
2. connect to ground/Vdd the input *and* output of every flip-flop storing
   one of those frozen bits, in every address-handling register (program
   counter, memory address register, branch target buffer tags/targets,
   EPC, ...) — tieing the output as well propagates the constant into the
   downstream address-manipulation logic (Fig. 6);
3. run the structural-untestability engine and collect the newly untestable
   faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.atpg.engine import AtpgEffort, StructuralUntestabilityEngine
from repro.faults.fault import StuckAtFault
from repro.faults.faultlist import generate_fault_list
from repro.manipulation.tie import tie_net
from repro.memory.analysis import constant_address_bits
from repro.memory.memory_map import MemoryMap
from repro.netlist.module import Netlist


@dataclass
class MemoryMapResult:
    """Outcome of the §3.3 analysis."""

    constant_bits: Dict[int, int] = field(default_factory=dict)
    tied_flops: List[str] = field(default_factory=list)
    tied_nets: Dict[str, int] = field(default_factory=dict)
    untestable: Set[StuckAtFault] = field(default_factory=set)
    baseline_untestable: Set[StuckAtFault] = field(default_factory=set)
    engine_runtime_seconds: float = 0.0

    @property
    def newly_untestable(self) -> Set[StuckAtFault]:
        return self.untestable - self.baseline_untestable

    def counts(self) -> Dict[str, int]:
        return {
            "constant_bits": len(self.constant_bits),
            "tied_flops": len(self.tied_flops),
            "tied_nets": len(self.tied_nets),
            "untestable": len(self.untestable),
            "newly_untestable": len(self.newly_untestable),
        }


def _address_register_records(netlist: Netlist) -> List[Dict[str, object]]:
    return list(netlist.annotations.get("address_registers", []))


def identify_memory_map_untestable(netlist: Netlist,
                                   memory_map: Optional[MemoryMap] = None,
                                   faults: Optional[Iterable[StuckAtFault]] = None,
                                   baseline_untestable: Optional[Set[StuckAtFault]] = None,
                                   effort: AtpgEffort = AtpgEffort.TIE,
                                   tie_flop_outputs: bool = True,
                                   tie_flop_inputs: bool = True,
                                   jobs: int = 1,
                                   static_learning: bool = True,
                                   atpg_backend: Optional[str] = None
                                   ) -> MemoryMapResult:
    """Identify on-line untestable faults caused by frozen address bits.

    ``tie_flop_outputs`` / ``tie_flop_inputs`` allow the ablation study to
    reproduce the paper's discussion of Fig. 6: tieing only the inputs stops
    the analysis at the flip-flop boundary, while also tieing the outputs
    propagates the constants into the downstream address-manipulation logic.
    """
    memory_map = memory_map or netlist.annotations.get("memory_map")
    if memory_map is None:
        raise ValueError(
            "no memory map supplied and none annotated on the netlist")

    records = _address_register_records(netlist)
    fault_universe = list(faults) if faults is not None else generate_fault_list(netlist).faults()
    if baseline_untestable is None:
        from repro.core.debug_control import compute_baseline_untestable
        baseline_untestable = compute_baseline_untestable(
            netlist, fault_universe, effort, jobs=jobs,
            static_learning=static_learning, atpg_backend=atpg_backend)

    constants = constant_address_bits(memory_map)
    result = MemoryMapResult(constant_bits=dict(constants),
                             baseline_untestable=set(baseline_untestable))
    if not records or not constants:
        return result

    manipulated = netlist.clone(f"{netlist.name}_memmap_tied")

    for record in records:
        ff_instances: List[str] = list(record.get("ff_instances", []))
        q_nets: List[str] = list(record.get("q_nets", []))
        address_bits: List[int] = list(record.get("address_bits", []))
        for ff_name, q_net, address_bit in zip(ff_instances, q_nets, address_bits):
            if address_bit not in constants:
                continue
            value = constants[address_bit]
            if ff_name not in manipulated.instances:
                continue
            inst = manipulated.instance(ff_name)
            result.tied_flops.append(ff_name)

            if tie_flop_outputs and q_net in manipulated.nets:
                if manipulated.nets[q_net].tied is None:
                    tie_net(manipulated, q_net, value,
                            reason=f"address bit {address_bit} frozen by memory map")
                    result.tied_nets[q_net] = value

            if tie_flop_inputs:
                data_pin_name = inst.cell.role_pin("data")
                if data_pin_name is not None:
                    data_pin = inst.pin(data_pin_name)
                    if data_pin.net is not None and data_pin.net.tied is None:
                        tie_net(manipulated, data_pin.net.name, value,
                                reason=f"address bit {address_bit} frozen by memory map")
                        result.tied_nets[data_pin.net.name] = value

    engine = StructuralUntestabilityEngine(manipulated, effort=effort,
                                           jobs=jobs,
                                           static_learning=static_learning,
                                           atpg_backend=atpg_backend)
    report = engine.classify(fault_universe)

    result.untestable = set(report.untestable)
    result.engine_runtime_seconds = report.runtime_seconds
    return result
