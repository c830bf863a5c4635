"""Arithmetic/logic unit generator.

Operations (selected by a 3-bit opcode bus): ADD, SUB, AND, OR, XOR, shift
left (optional barrel shifter), multiply low half (optional array
multiplier), pass-through of operand B.  Produces the result bus plus a zero
flag used by the branch logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.netlist.builder import NetlistBuilder
from repro.soc.generators import (
    array_multiplier,
    barrel_shifter,
    mux_tree_word,
    ripple_adder,
    subtractor,
    zero_detector,
)


@dataclass
class Alu:
    """Handles to the generated ALU."""

    result: List[str]
    zero_flag: str
    carry_out: str


def build_alu(b: NetlistBuilder,
              operand_a: Sequence[str],
              operand_b: Sequence[str],
              op_select: Sequence[str],
              mult_width: int = 0,
              has_barrel_shifter: bool = True,
              prefix: str = "alu") -> Alu:
    """Generate the ALU; ``op_select`` is a 3-bit bus (LSB first)."""
    width = len(operand_a)
    if len(operand_b) != width:
        raise ValueError("ALU operands must have equal width")
    if len(op_select) != 3:
        raise ValueError("op_select must be exactly 3 bits")

    add_result, carry = ripple_adder(b, operand_a, operand_b, prefix=f"{prefix}_add")
    sub_result, _ = subtractor(b, operand_a, operand_b, prefix=f"{prefix}_sub")
    and_result = [b.gate("AND2", x, y) for x, y in zip(operand_a, operand_b)]
    or_result = [b.gate("OR2", x, y) for x, y in zip(operand_a, operand_b)]
    xor_result = [b.xor(x, y) for x, y in zip(operand_a, operand_b)]

    if has_barrel_shifter:
        shift_amount_bits = max(1, (width - 1).bit_length())
        shift_result = barrel_shifter(b, operand_a, operand_b[:shift_amount_bits],
                                      left=True, prefix=f"{prefix}_shl")
    else:
        shift_result = list(operand_b)

    if mult_width > 0:
        mult_result = array_multiplier(b, operand_a[:mult_width],
                                       operand_b[:mult_width],
                                       result_width=width, prefix=f"{prefix}_mul")
    else:
        mult_result = list(operand_a)

    pass_b = list(operand_b)

    words = [add_result, sub_result, and_result, or_result,
             xor_result, shift_result, mult_result, pass_b]
    result = mux_tree_word(b, op_select, words, prefix=f"{prefix}_res")
    zero = zero_detector(b, result)

    return Alu(result=result, zero_flag=zero, carry_out=carry)
