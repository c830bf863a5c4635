"""Parametric gate-level generators for common datapath and control blocks.

Every generator takes a :class:`~repro.netlist.builder.NetlistBuilder` plus
input net names (LSB-first buses) and returns output net names.  They are
composed by the CPU/SoC builders into one flat netlist.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.netlist.builder import NetlistBuilder


# --------------------------------------------------------------------------- #
# arithmetic
# --------------------------------------------------------------------------- #
def ripple_adder(b: NetlistBuilder, a: Sequence[str], bb: Sequence[str],
                 carry_in: Optional[str] = None,
                 prefix: str = "add") -> Tuple[List[str], str]:
    """Ripple-carry adder; returns (sum bus, carry out)."""
    if len(a) != len(bb):
        raise ValueError("adder operands must have equal width")
    carry = carry_in if carry_in is not None else b.tie0()
    sums: List[str] = []
    for i, (ai, bi) in enumerate(zip(a, bb)):
        s = b.new_net(f"{prefix}_s{i}")
        co = b.new_net(f"{prefix}_c{i}")
        b.cell("FA", {"A": ai, "B": bi, "CI": carry, "S": s, "CO": co})
        sums.append(s)
        carry = co
    return sums, carry


def incrementer(b: NetlistBuilder, a: Sequence[str],
                prefix: str = "inc") -> Tuple[List[str], str]:
    """Add-one circuit built from half adders; returns (sum bus, carry out)."""
    carry = b.tie1()
    sums: List[str] = []
    for i, ai in enumerate(a):
        s = b.new_net(f"{prefix}_s{i}")
        co = b.new_net(f"{prefix}_c{i}")
        b.cell("HA", {"A": ai, "B": carry, "S": s, "CO": co})
        sums.append(s)
        carry = co
    return sums, carry


def subtractor(b: NetlistBuilder, a: Sequence[str], bb: Sequence[str],
               prefix: str = "sub") -> Tuple[List[str], str]:
    """Two's-complement subtractor a - b; returns (difference, borrow-free carry)."""
    inverted = [b.inv(bit) for bit in bb]
    return ripple_adder(b, a, inverted, carry_in=b.tie1(), prefix=prefix)


def array_multiplier(b: NetlistBuilder, a: Sequence[str], bb: Sequence[str],
                     result_width: Optional[int] = None,
                     prefix: str = "mul") -> List[str]:
    """Unsigned array multiplier (partial products + carry-save-style rows).

    ``result_width`` trims the product bus (default: len(a) + len(b)).
    Adders are only instantiated where two partial-product bits actually
    overlap, so no cell input is tied to a constant (mirroring what a logic
    synthesiser would produce).
    """
    width = result_width if result_width is not None else len(a) + len(bb)

    # Row 0: the first partial products land directly in the accumulator.
    acc: List[Optional[str]] = [None] * width
    for i, ai in enumerate(a):
        if i < width:
            acc[i] = b.gate("AND2", ai, bb[0])

    for j, bj in enumerate(bb[1:], start=1):
        carry: Optional[str] = None
        top = j
        for i, ai in enumerate(a):
            pos = i + j
            if pos >= width:
                break
            top = pos
            partial = b.gate("AND2", ai, bj)
            existing = acc[pos]
            if existing is None and carry is None:
                acc[pos] = partial
            elif existing is None:
                s = b.new_net(f"{prefix}_s{j}_{pos}")
                co = b.new_net(f"{prefix}_c{j}_{pos}")
                b.cell("HA", {"A": partial, "B": carry, "S": s, "CO": co})
                acc[pos], carry = s, co
            elif carry is None:
                s = b.new_net(f"{prefix}_s{j}_{pos}")
                co = b.new_net(f"{prefix}_c{j}_{pos}")
                b.cell("HA", {"A": existing, "B": partial, "S": s, "CO": co})
                acc[pos], carry = s, co
            else:
                s = b.new_net(f"{prefix}_s{j}_{pos}")
                co = b.new_net(f"{prefix}_c{j}_{pos}")
                b.cell("FA", {"A": existing, "B": partial, "CI": carry,
                              "S": s, "CO": co})
                acc[pos], carry = s, co
        # Ripple the row's final carry into the upper accumulator bits.
        pos = top + 1
        while carry is not None and pos < width:
            existing = acc[pos]
            if existing is None:
                acc[pos], carry = carry, None
            else:
                s = b.new_net(f"{prefix}_s{j}_{pos}")
                co = b.new_net(f"{prefix}_c{j}_{pos}")
                b.cell("HA", {"A": existing, "B": carry, "S": s, "CO": co})
                acc[pos], carry = s, co
                pos += 1

    zero: Optional[str] = None
    result: List[str] = []
    for value in acc:
        if value is None:
            if zero is None:
                zero = b.tie0()
            value = zero
        result.append(value)
    return result


def equality_comparator(b: NetlistBuilder, a: Sequence[str], bb: Sequence[str],
                        prefix: str = "eq") -> str:
    """1 when the two buses are bit-for-bit equal."""
    if len(a) != len(bb):
        raise ValueError("comparator operands must have equal width")
    bits = [b.xnor(ai, bi) for ai, bi in zip(a, bb)]
    return b.and_(*bits)


def zero_detector(b: NetlistBuilder, a: Sequence[str]) -> str:
    """1 when every bit of the bus is 0."""
    any_one = b.or_(*a)
    return b.inv(any_one)


# --------------------------------------------------------------------------- #
# steering logic
# --------------------------------------------------------------------------- #
def mux2_word(b: NetlistBuilder, sel: str, d0: Sequence[str], d1: Sequence[str],
              prefix: str = "muxw") -> List[str]:
    """Word-wide 2:1 mux (sel=0 selects d0)."""
    if len(d0) != len(d1):
        raise ValueError("mux2_word operands must have equal width")
    return [b.mux(sel, a, c, output=b.new_net(f"{prefix}{i}"))
            for i, (a, c) in enumerate(zip(d0, d1))]


def mux_tree_word(b: NetlistBuilder, select: Sequence[str],
                  words: Sequence[Sequence[str]],
                  prefix: str = "muxt") -> List[str]:
    """Select one of ``words`` with a binary select bus (LSB first).

    Missing words (when len(words) < 2**len(select)) are padded with the
    last word, which keeps the tree full without extra tie cells.
    """
    if not words:
        raise ValueError("mux_tree_word requires at least one word")
    needed = 1 << len(select)
    padded = list(words) + [words[-1]] * (needed - len(words))
    level: List[Sequence[str]] = padded
    for stage, sel_bit in enumerate(select):
        nxt: List[Sequence[str]] = []
        for i in range(0, len(level), 2):
            nxt.append(mux2_word(b, sel_bit, level[i], level[i + 1],
                                 prefix=f"{prefix}_s{stage}_{i // 2}_"))
        level = nxt
    return list(level[0])


def binary_decoder(b: NetlistBuilder, select: Sequence[str],
                   enable: Optional[str] = None,
                   prefix: str = "dec") -> List[str]:
    """n-to-2^n one-hot decoder (optionally gated by an enable)."""
    inverted = [b.inv(s) for s in select]
    outputs: List[str] = []
    for code in range(1 << len(select)):
        terms = []
        for bit, sel in enumerate(select):
            terms.append(sel if (code >> bit) & 1 else inverted[bit])
        if enable is not None:
            terms.append(enable)
        outputs.append(b.and_(*terms, output=b.new_net(f"{prefix}{code}")))
    return outputs


def barrel_shifter(b: NetlistBuilder, data: Sequence[str], amount: Sequence[str],
                   left: bool = True, prefix: str = "shift") -> List[str]:
    """Logarithmic barrel shifter (logical shift, zero fill)."""
    zero = b.tie0()
    current = list(data)
    width = len(data)
    for stage, sel in enumerate(amount):
        distance = 1 << stage
        shifted: List[str] = []
        for i in range(width):
            source = i - distance if left else i + distance
            shifted.append(current[source] if 0 <= source < width else zero)
        current = mux2_word(b, sel, current, shifted,
                            prefix=f"{prefix}_st{stage}_")
    return current


# --------------------------------------------------------------------------- #
# storage
# --------------------------------------------------------------------------- #
def register_word(b: NetlistBuilder, d: Sequence[str], clk: str, enable: str,
                  prefix: str = "reg", reset_n: Optional[str] = None) -> List[str]:
    """A write-enabled register: each bit is a DFF fed by a hold/load mux."""
    q_bus = [b.new_net(f"{prefix}_q{i}") for i in range(len(d))]
    for i, di in enumerate(d):
        next_value = b.mux(enable, q_bus[i], di)
        b.dff(next_value, clk, q=q_bus[i], reset_n=reset_n, name=f"{prefix}_ff{i}")
    return q_bus


def shift_register(b: NetlistBuilder, serial_in: str, clk: str, enable: str,
                   length: int, prefix: str = "shreg",
                   reset_n: Optional[str] = None) -> List[str]:
    """Serial-in shift register with shift enable; returns the parallel outputs."""
    q_bus = [b.new_net(f"{prefix}_q{i}") for i in range(length)]
    previous = serial_in
    for i in range(length):
        next_value = b.mux(enable, q_bus[i], previous)
        b.dff(next_value, clk, q=q_bus[i], reset_n=reset_n, name=f"{prefix}_ff{i}")
        previous = q_bus[i]
    return q_bus


def buffer_tree(b: NetlistBuilder, sources: Sequence[str],
                prefix: str = "obsbuf", stages: int = 2) -> List[str]:
    """A chain of dedicated buffers per source (observation-only logic)."""
    outputs: List[str] = []
    for i, src in enumerate(sources):
        current = src
        for stage in range(stages):
            current = b.buf(current, output=b.new_net(f"{prefix}{i}_s{stage}"))
        outputs.append(current)
    return outputs


# --------------------------------------------------------------------------- #
# random-function synthesis (control logic filler with deterministic structure)
# --------------------------------------------------------------------------- #
def synthesize_function(b: NetlistBuilder, inputs: Sequence[str],
                        truth: Callable[[int], int],
                        prefix: str = "fn") -> str:
    """Synthesize a single-output boolean function of ``inputs`` as a MUX tree.

    ``truth`` maps the integer formed by the inputs (LSB-first) to 0/1.
    Used to build instruction decoders and FSM next-state logic without a
    full logic synthesiser.
    """
    zero = b.tie0()
    one = b.tie1()
    leaves: List[str] = [one if truth(code) else zero for code in range(1 << len(inputs))]
    level = leaves
    for stage, sel in enumerate(inputs):
        nxt: List[str] = []
        for i in range(0, len(level), 2):
            if level[i] == level[i + 1]:
                nxt.append(level[i])
            else:
                nxt.append(b.mux(sel, level[i], level[i + 1],
                                 output=b.new_net(f"{prefix}_s{stage}_{i // 2}")))
        level = nxt
    return level[0]
