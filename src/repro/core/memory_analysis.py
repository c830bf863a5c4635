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

Step 3 and the clone are the shared manipulate–classify–subtract step,
:func:`repro.core.classification.classify_manipulated`; this module
supplies the frozen flip-flops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.atpg.engine import AtpgEffort
from repro.core.classification import ManipulationResult, classify_manipulated
from repro.faults.fault import StuckAtFault
from repro.manipulation.tie import tie_net
from repro.memory.analysis import constant_address_bits
from repro.memory.memory_map import MemoryMap
from repro.netlist.module import Netlist


@dataclass
class MemoryMapResult(ManipulationResult):
    """Outcome of the §3.3 analysis."""

    constant_bits: Dict[int, int] = field(default_factory=dict)
    tied_flops: List[str] = field(default_factory=list)
    tied_nets: Dict[str, int] = field(default_factory=dict)


def identify_memory_map_untestable(netlist: Netlist,
                                   memory_map: Optional[MemoryMap] = None,
                                   faults: Optional[Iterable[StuckAtFault]] = None,
                                   baseline_untestable: Optional[Set[StuckAtFault]] = None,
                                   effort: AtpgEffort = AtpgEffort.TIE,
                                   tie_flop_outputs: bool = True,
                                   tie_flop_inputs: bool = True,
                                   jobs: int = 1,
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

    records = netlist.annotations.get("address_registers", [])
    constants = constant_address_bits(memory_map)
    result = MemoryMapResult(constant_bits=dict(constants))

    def freeze_address_bits(manipulated: Netlist) -> bool:
        if not records or not constants:
            return False

        def freeze(net: str, value: int, address_bit: int) -> None:
            if manipulated.nets[net].tied is None:
                tie_net(manipulated, net, value,
                        reason=f"address bit {address_bit} frozen by memory map")
                result.tied_nets[net] = value

        for record in records:
            for ff_name, q_net, address_bit in zip(record.get("ff_instances", []),
                                                   record.get("q_nets", []),
                                                   record.get("address_bits", [])):
                if address_bit not in constants or ff_name not in manipulated.instances:
                    continue
                value = constants[address_bit]
                result.tied_flops.append(ff_name)
                if tie_flop_outputs and q_net in manipulated.nets:
                    freeze(q_net, value, address_bit)
                if tie_flop_inputs:
                    inst = manipulated.instance(ff_name)
                    data_pin_name = inst.cell.role_pin("data")
                    if data_pin_name is not None:
                        data_net = inst.pin(data_pin_name).net
                        if data_net is not None:
                            freeze(data_net.name, value, address_bit)
        return True

    return classify_manipulated(
        netlist, freeze_address_bits, result, faults, baseline_untestable,
        suffix="_memmap_tied", effort=effort, jobs=jobs,
        atpg_backend=atpg_backend)
