"""Address-generation unit: program counter, branch adder, effective-address
adder and the memory address register.

These are exactly the "address generation, prediction and virtualization"
resources §3.3 of the paper singles out: when the mission memory map freezes
most address bits, the registers built here hold constants and the adders are
only partly exercised.  The CPU builder records every address-holding
flip-flop generated here in the ``address_registers`` netlist annotation so
the memory-map analysis can tie the frozen bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.netlist.builder import NetlistBuilder
from repro.soc.generators import incrementer, mux2_word, register_word, ripple_adder


@dataclass
class AddressRegisterRecord:
    """One address-holding register: per-bit flip-flop instance names."""

    name: str
    ff_instances: List[str]
    q_nets: List[str]

    @property
    def width(self) -> int:
        return len(self.ff_instances)


@dataclass
class AddressUnit:
    """Handles to the generated AGU."""

    pc: List[str]
    pc_plus_one: List[str]
    branch_target: List[str]
    effective_address: List[str]
    mem_address: List[str]
    address_registers: List[AddressRegisterRecord] = field(default_factory=list)


def build_address_unit(b: NetlistBuilder,
                       clk: str,
                       reset_n: str,
                       addr_width: int,
                       base_address: Sequence[str],
                       offset: Sequence[str],
                       branch_offset: Sequence[str],
                       take_branch: str,
                       jump: str,
                       predicted_target: Optional[Sequence[str]] = None,
                       use_prediction: Optional[str] = None,
                       pc_enable: Optional[str] = None,
                       prefix: str = "agu") -> AddressUnit:
    """Generate the AGU.

    Parameters
    ----------
    base_address / offset:
        Operands of the effective-address adder (load/store address).
    branch_offset:
        Added to the PC for the branch target.
    take_branch / jump:
        Redirect controls from the branch logic.
    predicted_target / use_prediction:
        Optional branch-target-buffer interface.
    pc_enable:
        Optional PC write enable (debug halt gating).
    """
    unit = AddressUnit(pc=[], pc_plus_one=[], branch_target=[],
                       effective_address=[], mem_address=[])

    # Program counter -------------------------------------------------- #
    pc_prefix = f"{prefix}_pc"
    pc_q = [f"{pc_prefix}_q{i}" for i in range(addr_width)]
    for net in pc_q:
        b.netlist.get_or_create_net(net)

    pc_plus_one, _ = incrementer(b, pc_q, prefix=f"{prefix}_pcinc")
    branch_target, _ = ripple_adder(b, pc_q, branch_offset, prefix=f"{prefix}_br")

    next_pc = mux2_word(b, take_branch, pc_plus_one, branch_target,
                        prefix=f"{prefix}_npc_br")
    if predicted_target is not None and use_prediction is not None:
        next_pc = mux2_word(b, use_prediction, next_pc, predicted_target,
                            prefix=f"{prefix}_npc_pred")
    # A jump redirects to the effective branch target as well.
    next_pc = mux2_word(b, jump, next_pc, branch_target, prefix=f"{prefix}_npc_jmp")

    if pc_enable is not None:
        next_pc = mux2_word(b, pc_enable, pc_q, next_pc, prefix=f"{prefix}_npc_en")

    for i in range(addr_width):
        b.dff(next_pc[i], clk, q=pc_q[i], reset_n=reset_n, name=f"{pc_prefix}_ff{i}")
    unit.pc = pc_q
    unit.pc_plus_one = pc_plus_one
    unit.branch_target = branch_target
    unit.address_registers.append(AddressRegisterRecord(
        name=pc_prefix,
        ff_instances=[f"{pc_prefix}_ff{i}" for i in range(addr_width)],
        q_nets=pc_q,
    ))

    # Effective address and memory address register --------------------- #
    effective, _ = ripple_adder(b, base_address, offset, prefix=f"{prefix}_ea")
    unit.effective_address = effective

    mar_prefix = f"{prefix}_mar"
    always_on = b.tie1()
    mar_q = register_word(b, effective, clk, always_on, prefix=mar_prefix,
                          reset_n=reset_n)
    unit.mem_address = mar_q
    unit.address_registers.append(AddressRegisterRecord(
        name=mar_prefix,
        ff_instances=[f"{mar_prefix}_ff{i}" for i in range(addr_width)],
        q_nets=list(mar_q),
    ))

    return unit
