"""General-purpose register file generator.

``n_registers`` words of ``data_width`` flip-flops with one write port and
two combinational read ports (mux trees).  The write path can be overridden
by the debug logic (register manipulation through the Nexus/JTAG interface),
which is exactly the kind of mission-unused control path §3.2.1 of the paper
prunes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.netlist.builder import NetlistBuilder
from repro.soc.generators import binary_decoder, mux_tree_word, register_word


@dataclass
class RegisterFile:
    """Handles to the generated register file."""

    registers: List[List[str]]      # Q nets, one bus per architectural register
    read_data_a: List[str]
    read_data_b: List[str]
    write_enables: List[str]        # per-register decoded write enables


def build_register_file(b: NetlistBuilder,
                        clk: str,
                        n_registers: int,
                        data_width: int,
                        write_data: Sequence[str],
                        write_address: Sequence[str],
                        write_enable: str,
                        read_address_a: Sequence[str],
                        read_address_b: Sequence[str],
                        prefix: str = "rf") -> RegisterFile:
    """Generate the register file and return its interface nets."""
    if len(write_data) != data_width:
        raise ValueError("write_data width mismatch")

    enables = binary_decoder(b, write_address, enable=write_enable,
                             prefix=f"{prefix}_wdec")
    enables = enables[:n_registers]

    registers: List[List[str]] = []
    for index in range(n_registers):
        q_bus = register_word(b, write_data, clk, enables[index],
                              prefix=f"{prefix}_r{index}")
        registers.append(q_bus)

    read_a = mux_tree_word(b, read_address_a, registers, prefix=f"{prefix}_rda")
    read_b = mux_tree_word(b, read_address_b, registers, prefix=f"{prefix}_rdb")

    return RegisterFile(
        registers=registers,
        read_data_a=read_a,
        read_data_b=read_b,
        write_enables=enables,
    )
