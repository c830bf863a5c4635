"""Functional correctness tests for the parametric datapath generators.

Each generator is checked against its integer/boolean reference over either
an exhaustive or a pseudo-random operand set, simulated with the levelised
combinational simulator.
"""

import itertools
import random

import pytest

from repro.netlist.builder import NetlistBuilder
from repro.simulation.simulator import CombinationalSimulator
from repro.soc.generators import (
    array_multiplier,
    barrel_shifter,
    binary_decoder,
    buffer_tree,
    equality_comparator,
    incrementer,
    mux_tree_word,
    register_word,
    ripple_adder,
    shift_register,
    subtractor,
    synthesize_function,
    zero_detector,
)


def _drive(width, name, value):
    return {f"{name}[{i}]": (value >> i) & 1 for i in range(width)}


def _read(values, nets):
    return sum(values[net] << i for i, net in enumerate(nets))


class TestArithmetic:
    def _build_binary(self, width, generator):
        b = NetlistBuilder("m")
        a = b.add_input_bus("a", width)
        c = b.add_input_bus("b", width)
        outputs = generator(b, a, c)
        netlist = b.build()
        return netlist, CombinationalSimulator(netlist), outputs

    def test_ripple_adder_exhaustive(self):
        netlist, sim, (total, carry) = self._build_binary(
            3, lambda b, a, c: ripple_adder(b, a, c))
        for x, y in itertools.product(range(8), repeat=2):
            values = sim.evaluate({**_drive(3, "a", x), **_drive(3, "b", y)})
            assert _read(values, total) + (values[carry] << 3) == x + y

    def test_subtractor_exhaustive(self):
        netlist, sim, (diff, _) = self._build_binary(
            3, lambda b, a, c: subtractor(b, a, c))
        for x, y in itertools.product(range(8), repeat=2):
            values = sim.evaluate({**_drive(3, "a", x), **_drive(3, "b", y)})
            assert _read(values, diff) == (x - y) & 0b111

    def test_incrementer_exhaustive(self):
        b = NetlistBuilder("m")
        a = b.add_input_bus("a", 4)
        total, carry = incrementer(b, a)
        sim = CombinationalSimulator(b.build())
        for x in range(16):
            values = sim.evaluate(_drive(4, "a", x))
            assert _read(values, total) + (values[carry] << 4) == x + 1

    def test_multiplier_random(self):
        rng = random.Random(7)
        b = NetlistBuilder("m")
        a = b.add_input_bus("a", 6)
        c = b.add_input_bus("b", 6)
        product = array_multiplier(b, a, c)
        sim = CombinationalSimulator(b.build())
        for _ in range(60):
            x, y = rng.randrange(64), rng.randrange(64)
            values = sim.evaluate({**_drive(6, "a", x), **_drive(6, "b", y)})
            assert _read(values, product) == x * y

    def test_multiplier_truncated_result(self):
        b = NetlistBuilder("m")
        a = b.add_input_bus("a", 4)
        c = b.add_input_bus("b", 4)
        product = array_multiplier(b, a, c, result_width=4)
        sim = CombinationalSimulator(b.build())
        for x, y in itertools.product(range(16), repeat=2):
            values = sim.evaluate({**_drive(4, "a", x), **_drive(4, "b", y)})
            assert _read(values, product) == (x * y) & 0xF

    def test_equality_comparator(self):
        netlist, sim, eq = self._build_binary(
            3, lambda b, a, c: equality_comparator(b, a, c))
        for x, y in itertools.product(range(8), repeat=2):
            values = sim.evaluate({**_drive(3, "a", x), **_drive(3, "b", y)})
            assert values[eq] == int(x == y)

    def test_zero_detector(self):
        b = NetlistBuilder("m")
        a = b.add_input_bus("a", 5)
        z = zero_detector(b, a)
        sim = CombinationalSimulator(b.build())
        for x in range(32):
            assert sim.evaluate(_drive(5, "a", x))[z] == int(x == 0)

    def test_adder_width_mismatch_rejected(self):
        b = NetlistBuilder("m")
        a = b.add_input_bus("a", 3)
        c = b.add_input_bus("b", 2)
        with pytest.raises(ValueError):
            ripple_adder(b, a, c)


class TestSteering:
    def test_mux_tree_word_selects_correct_word(self):
        b = NetlistBuilder("m")
        words = [b.add_input_bus(f"w{k}", 2) for k in range(3)]
        select = b.add_input_bus("s", 2)
        out = mux_tree_word(b, select, words)
        sim = CombinationalSimulator(b.build())
        data = {f"w{k}[{i}]": (k >> i) & 1 for k in range(3) for i in range(2)}
        for sel in range(3):
            values = sim.evaluate({**data, **_drive(2, "s", sel)})
            assert _read(values, out) == sel

    def test_mux_tree_word_empty_rejected(self):
        with pytest.raises(ValueError):
            mux_tree_word(NetlistBuilder("m"), ["s"], [])

    def test_binary_decoder_one_hot(self):
        b = NetlistBuilder("m")
        select = b.add_input_bus("s", 3)
        enable = b.add_input("en")
        outputs = binary_decoder(b, select, enable=enable)
        sim = CombinationalSimulator(b.build())
        for sel in range(8):
            values = sim.evaluate({**_drive(3, "s", sel), "en": 1})
            assert [values[o] for o in outputs] == [int(i == sel) for i in range(8)]
            values = sim.evaluate({**_drive(3, "s", sel), "en": 0})
            assert all(values[o] == 0 for o in outputs)

    def test_barrel_shifter_left(self):
        b = NetlistBuilder("m")
        data = b.add_input_bus("d", 8)
        amount = b.add_input_bus("amt", 3)
        out = barrel_shifter(b, data, amount, left=True)
        sim = CombinationalSimulator(b.build())
        for value, shift in itertools.product((0xA5, 0x3C, 0x01), range(8)):
            values = sim.evaluate({**_drive(8, "d", value), **_drive(3, "amt", shift)})
            assert _read(values, out) == (value << shift) & 0xFF

    def test_barrel_shifter_right(self):
        b = NetlistBuilder("m")
        data = b.add_input_bus("d", 8)
        amount = b.add_input_bus("amt", 3)
        out = barrel_shifter(b, data, amount, left=False)
        sim = CombinationalSimulator(b.build())
        for value, shift in itertools.product((0xA5, 0x81), range(8)):
            values = sim.evaluate({**_drive(8, "d", value), **_drive(3, "amt", shift)})
            assert _read(values, out) == (value >> shift) & 0xFF

    def test_synthesize_function_arbitrary_truth_table(self):
        def truth(code):
            return int(bin(code).count("1") % 2 == 1)  # parity

        b = NetlistBuilder("m")
        inputs = b.add_input_bus("x", 4)
        out = synthesize_function(b, inputs, truth)
        sim = CombinationalSimulator(b.build())
        for code in range(16):
            values = sim.evaluate(_drive(4, "x", code))
            assert values[out] == truth(code)


class TestStorage:
    def test_register_word_load_and_hold(self):
        b = NetlistBuilder("m")
        clk = b.add_input("clk")
        d = b.add_input_bus("d", 4)
        en = b.add_input("en")
        q = register_word(b, d, clk, en, prefix="r")
        outs = b.add_output_bus("q", 4)
        for i in range(4):
            b.buf(q[i], output=outs[i])
        from repro.simulation.sequential import SequentialSimulator

        sim = SequentialSimulator(b.build())
        sim.step({**_drive(4, "d", 0b1010), "en": 1})
        values = sim.step({**_drive(4, "d", 0b0101), "en": 0})
        assert _read(values, [f"q[{i}]" for i in range(4)]) == 0b1010

    def test_shift_register_shifts_only_when_enabled(self):
        b = NetlistBuilder("m")
        clk = b.add_input("clk")
        si = b.add_input("si")
        en = b.add_input("en")
        q = shift_register(b, si, clk, en, length=3, prefix="sr")
        from repro.simulation.sequential import SequentialSimulator

        sim = SequentialSimulator(b.build())
        sim.step({"si": 1, "en": 1})
        sim.step({"si": 0, "en": 0})   # hold
        sim.step({"si": 0, "en": 1})
        assert sim.peek(q[0]) == 0 and sim.peek(q[1]) == 1

    def test_buffer_tree_structure(self):
        b = NetlistBuilder("m")
        srcs = b.add_input_bus("s", 4)
        outs = buffer_tree(b, srcs, stages=3)
        assert len(outs) == 4
        buffers = [i for i in b.netlist.instances.values() if i.cell.name == "BUF"]
        assert len(buffers) == 12
