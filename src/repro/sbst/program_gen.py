"""SBST test-program generation.

Generates a deterministic suite of small self-test programs in the spirit of
the classic SBST literature the paper builds on: register-file march
sequences, ALU operation sweeps with complementary operand patterns,
branch/BTB exercising kernels and load/store address walks.  Each program is
a list of instruction words (plus the assembly text for inspection) ready to
be fed to the gate-level core's instruction port.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sbst.assembler import assemble
from repro.soc.config import CpuConfig
from repro.utils.bitvec import mask


@dataclass
class SbstProgram:
    """One generated self-test program."""

    name: str
    source: str
    words: List[int] = field(default_factory=list)

    @property
    def length(self) -> int:
        return len(self.words)


def _alternating(width: int, phase: int) -> int:
    pattern = 0
    for bit in range(width):
        if (bit + phase) % 2 == 0:
            pattern |= 1 << bit
    return pattern


def _register_march(config: CpuConfig) -> str:
    """March through every register with complementary data patterns."""
    imm_width = config.instr_width - 5 - 3 * config.register_select_bits
    lines = []
    checker = _alternating(imm_width, 0) & mask(imm_width)
    inverse = _alternating(imm_width, 1) & mask(imm_width)
    for reg in range(1, config.n_registers):
        lines.append(f"movi r{reg}, {checker}")
    for reg in range(1, config.n_registers):
        lines.append(f"xor r{reg}, r{reg}, r{(reg % (config.n_registers - 1)) + 1}")
    for reg in range(1, config.n_registers):
        lines.append(f"movi r{reg}, {inverse}")
        lines.append(f"store r0, r{reg}, {reg % 8}")
    lines.append("halt")
    return "\n".join(lines)


def _alu_sweep(config: CpuConfig, seed: int) -> str:
    """Exercise every ALU operation with pseudo-random operands."""
    rng = random.Random(seed)
    imm_width = config.instr_width - 5 - 3 * config.register_select_bits
    imm_max = mask(max(1, imm_width))
    regs = list(range(1, config.n_registers))
    lines = []
    for reg in regs[:4]:
        lines.append(f"movi r{reg}, {rng.randint(0, imm_max)}")
    operations = ["add", "sub", "and", "or", "xor", "shl", "mul"]
    for _ in range(6 * len(operations)):
        op = rng.choice(operations)
        rd = rng.choice(regs)
        rs1 = rng.choice(regs)
        rs2 = rng.choice(regs)
        lines.append(f"{op} r{rd}, r{rs1}, r{rs2}")
        if rng.random() < 0.25:
            lines.append(f"store r0, r{rd}, {rng.randint(0, min(7, imm_max))}")
    lines.append("halt")
    return "\n".join(lines)


def _branch_kernel(config: CpuConfig) -> str:
    """A loop kernel exercising the branch logic and the BTB."""
    lines = [
        "movi r1, 0",
        f"movi r2, {min(7, mask(max(1, config.instr_width - 5 - 3 * config.register_select_bits)))}",
        "movi r3, 1",
        "loop: add r1, r1, r3",
        "store r0, r1, 0",
        "bne r1, r2, loop",
        "beq r1, r2, done",
        "jump loop",
        "done: halt",
    ]
    return "\n".join(lines)


def _memory_walk(config: CpuConfig) -> str:
    """Walk load/store addresses across the low immediate range."""
    imm_width = config.instr_width - 5 - 3 * config.register_select_bits
    span = min(8, mask(max(1, imm_width)) + 1)
    lines = ["movi r1, 1"]
    for offset in range(span):
        lines.append(f"store r0, r1, {offset}")
        lines.append(f"load r2, r0, {offset}")
        lines.append("add r1, r1, r2")
    lines.append("halt")
    return "\n".join(lines)


def generate_sbst_suite(config: Optional[CpuConfig] = None,
                        seed: int = 2013) -> List[SbstProgram]:
    """Generate the standard four-program SBST suite for a core configuration."""
    config = config or CpuConfig.date13()
    sources: Dict[str, str] = {
        "register_march": _register_march(config),
        "alu_sweep": _alu_sweep(config, seed),
        "branch_kernel": _branch_kernel(config),
        "memory_walk": _memory_walk(config),
    }
    programs = []
    for name, source in sources.items():
        words = assemble(source, instr_width=config.instr_width,
                         register_select_bits=config.register_select_bits)
        programs.append(SbstProgram(name=name, source=source, words=words))
    return programs
