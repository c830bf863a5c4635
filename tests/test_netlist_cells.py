"""Unit tests for the standard-cell library and its three-valued semantics."""

import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from repro.netlist.builder import NetlistBuilder
from repro.netlist.cells import (
    LOGIC_0,
    LOGIC_1,
    LOGIC_X,
    PLANE_ENCODING,
    encode,
    standard_library,
)
from repro.netlist.compiled import get_compiled
from repro.simulation.simulator import scalar3_program

LOGIC = (LOGIC_0, LOGIC_1, LOGIC_X)
CELL_NAMES = standard_library().cell_names()


def scalar(cell, **pins):
    """``cell.scalar`` with the input values given by pin name."""
    return cell.scalar(*[pins[pin] for pin in cell.inputs])


#: Two-valued reference of every standard cell, written independently of
#: the declarations: input values in pin order -> one value per output
#: (the next state for a sequential cell).  A new cell needs an entry here.
REFERENCE = {
    "TIE0": lambda: (0,),
    "TIE1": lambda: (1,),
    "BUF": lambda a: (a,),
    "INV": lambda a: (1 - a,),
    "AND": lambda *v: (int(all(v)),),
    "NAND": lambda *v: (int(not all(v)),),
    "OR": lambda *v: (int(any(v)),),
    "NOR": lambda *v: (int(not any(v)),),
    "XOR2": lambda a, b: (a ^ b,),
    "XNOR2": lambda a, b: (1 - (a ^ b),),
    "MUX2": lambda d0, d1, s: (d1 if s else d0,),
    "AO21": lambda a, b, c: ((a & b) | c,),
    "OA21": lambda a, b, c: ((a | b) & c,),
    "AOI21": lambda a, b, c: (1 - ((a & b) | c),),
    "OAI21": lambda a, b, c: (1 - ((a | b) & c),),
    "HA": lambda a, b: ((a + b) % 2, (a + b) // 2),
    "FA": lambda a, b, ci: ((a + b + ci) % 2, (a + b + ci) // 2),
    "DFF": lambda d, ck: (d,),
    "DFFR": lambda d, ck, rn: (d if rn else 0,),
    "SDFF": lambda d, si, se, ck: (si if se else d,),
    "SDFFR": lambda d, si, se, ck, rn: ((si if se else d) if rn else 0,),
    "DBGFF": lambda d, di, de, ck: (di if de else d,),
}


def oracle(cell):
    """Every {0,1,X}^k input of ``cell`` -> its expected outputs.

    The reference completed exactly over X: an output is definite only when
    every 0/1 completion of the X inputs agrees.  The one exception is the
    active-low reset of DFFR/SDFFR, where an X reset gives X.
    """
    reference = REFERENCE.get(cell.name) or REFERENCE[cell.name.rstrip("234")]
    reset = cell.inputs.index(cell.role_pin("reset")) if cell.role_pin("reset") else None
    table = {}
    for combo in itertools.product(LOGIC, repeat=len(cell.inputs)):
        if reset is not None and combo[reset] == LOGIC_X:
            table[combo] = (LOGIC_X,) * len(cell.outputs)
            continue
        xs = [i for i, v in enumerate(combo) if v == LOGIC_X]
        results = set()
        for fill in itertools.product((0, 1), repeat=len(xs)):
            values = list(combo)
            for i, v in zip(xs, fill):
                values[i] = v
            results.add(reference(*values))
        table[combo] = tuple(column[0] if len(set(column)) == 1 else LOGIC_X
                             for column in zip(*results))
    return table


def decode(b1, b0):
    return LOGIC_1 if b1 else (LOGIC_0 if b0 else LOGIC_X)


def planes(combo):
    return [bit for value in combo for bit in PLANE_ENCODING[value]]


@pytest.fixture(scope="module")
def one_of_each():
    """A netlist with one instance of every combinational standard cell."""
    b = NetlistBuilder("one_of_each")
    for cell in standard_library():
        if not cell.sequential:
            pins = {pin: b.add_input(f"{cell.name}_{pin}") for pin in cell.inputs}
            pins.update({pin: b.add_output(f"{cell.name}_{pin}_out")
                         for pin in cell.outputs})
            b.cell(cell.name, pins, name=f"u_{cell.name}")
    return get_compiled(b.build())


class TestCellForms:
    """Every generated form of every cell against the independent oracle."""

    @pytest.mark.parametrize("name", CELL_NAMES)
    def test_forms_match_oracle(self, name, one_of_each):
        cell = standard_library().get(name)
        table = oracle(cell)
        n_in, n_out = len(cell.inputs), len(cell.outputs)
        scalar = None
        if not cell.sequential:
            scalar = scalar3_program(one_of_each)[
                [c.name for c in one_of_each.op_cell].index(name)]
        for combo, want in table.items():
            out = cell.plane(1, *planes(combo))
            assert tuple(decode(out[2 * j], out[2 * j + 1])
                         for j in range(n_out)) == want, (name, combo)
            assert cell.scalar(*combo) == want, (name, combo)
            if scalar is not None:
                assert scalar(*combo) == want, (name, combo)
            if LOGIC_X not in combo:
                assert cell.word(1, *combo) == want, (name, combo)

        rng = random.Random(name)
        mask = (1 << 64) - 1
        for _ in range(20):
            lanes = [tuple(rng.choice(LOGIC) for _ in range(n_in))
                     for _ in range(64)]
            flat = [0] * (2 * n_in)
            words = [0] * n_in
            for bit, combo in enumerate(lanes):
                for k, value in enumerate(combo):
                    b1, b0 = PLANE_ENCODING[value]
                    flat[2 * k] |= b1 << bit
                    flat[2 * k + 1] |= b0 << bit
                    words[k] |= (value & 1) << bit
            out = cell.plane(mask, *flat)
            word_out = cell.word(mask, *words)
            for bit, combo in enumerate(lanes):
                got = tuple(decode(out[2 * j] >> bit & 1, out[2 * j + 1] >> bit & 1)
                            for j in range(n_out))
                assert got == table[combo], (name, combo)
                two_valued = tuple(v & 1 for v in combo)
                assert tuple(w >> bit & 1 for w in word_out) == table[two_valued]
            assert all(0 <= w <= mask for w in word_out)


#: The gate-family facts PODEM, the D-algorithm, the portfolio, the
#: tied-value blocking rule and stuck-at collapsing once hard-coded per
#: family.
FAMILY_FACTS = {
    "AND": (LOGIC_0, False),
    "NAND": (LOGIC_0, True),
    "OR": (LOGIC_1, False),
    "NOR": (LOGIC_1, True),
    "BUF": (None, False),
    "INV": (None, True),
}


class TestGateFacts:
    @pytest.mark.parametrize("name", CELL_NAMES)
    def test_derived_facts_match_family_table(self, name):
        """Derived facts equal the old literals, so PODEM/dalg decision
        order and the collapse classes cannot move."""
        cell = standard_library().get(name)
        assert cell.control == FAMILY_FACTS.get(name.rstrip("0123456789"))


class TestLibrary:
    def test_standard_library_is_cached(self):
        assert standard_library() is standard_library()

    def test_expected_cells_present(self, library):
        for name in ("BUF", "INV", "AND2", "NAND3", "OR4", "XOR2", "MUX2",
                     "FA", "HA", "DFF", "DFFR", "SDFF", "SDFFR", "DBGFF",
                     "TIE0", "TIE1"):
            assert name in library

    def test_unknown_cell_raises(self, library):
        with pytest.raises(KeyError):
            library.get("NAND9")

    def test_duplicate_cell_rejected(self, library):
        from repro.netlist.cells import Cell, Library

        lib = Library("dup")
        cell = Cell("X1", ("A",), ("Y",), "Y = A")
        lib.add(cell)
        with pytest.raises(ValueError):
            lib.add(cell)

    def test_cell_pin_helpers(self, library):
        cell = library.get("MUX2")
        assert cell.is_input("S") and cell.is_output("Y")
        assert cell.pins == ("D0", "D1", "S", "Y")

    def test_sequential_roles(self, library):
        sdff = library.get("SDFF")
        assert sdff.sequential
        assert sdff.role_pin("scan_in") == "SI"
        assert sdff.role_pin("scan_enable") == "SE"
        assert sdff.role_value("scan_enable_active") == LOGIC_1
        dbg = library.get("DBGFF")
        assert dbg.role_pin("debug_in") == "DI"
        assert dbg.role_pin("debug_enable") == "DE"

    def test_invalid_logic_value_rejected(self):
        assert encode(LOGIC_X, "net", "a", "top") == PLANE_ENCODING[LOGIC_X]
        for value in (7, "1", None, []):
            message = f"invalid logic value {value!r} on net 'a' of top"
            with pytest.raises(ValueError, match=re.escape(message)):
                encode(value, "net", "a", "top")


class TestCombinationalTruth:
    """Exhaustive two-valued truth tables for every combinational cell."""

    REFERENCE = {
        "AND": lambda vals: int(all(vals)),
        "NAND": lambda vals: int(not all(vals)),
        "OR": lambda vals: int(any(vals)),
        "NOR": lambda vals: int(not any(vals)),
    }

    @pytest.mark.parametrize("family", ["AND", "NAND", "OR", "NOR"])
    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_gate_families(self, library, family, arity):
        cell = library.get(f"{family}{arity}")
        reference = self.REFERENCE[family]
        for values in itertools.product((0, 1), repeat=arity):
            assert cell.scalar(*values) == (reference(values),)

    def test_xor_xnor(self, library):
        for a, b in itertools.product((0, 1), repeat=2):
            assert scalar(library.get("XOR2"), A=a, B=b) == (a ^ b,)
            assert scalar(library.get("XNOR2"), A=a, B=b) == (1 - (a ^ b),)

    def test_mux2(self, library):
        for d0, d1, s in itertools.product((0, 1), repeat=3):
            expected = d1 if s else d0
            assert scalar(library.get("MUX2"), D0=d0, D1=d1, S=s) == (expected,)

    def test_full_adder(self, library):
        assert library.get("FA").outputs == ("S", "CO")
        for a, b, ci in itertools.product((0, 1), repeat=3):
            assert scalar(library.get("FA"), A=a, B=b, CI=ci) == (
                (a + b + ci) % 2, (a + b + ci) // 2)

    def test_half_adder(self, library):
        assert library.get("HA").outputs == ("S", "CO")
        for a, b in itertools.product((0, 1), repeat=2):
            assert scalar(library.get("HA"), A=a, B=b) == (
                (a + b) % 2, (a + b) // 2)

    def test_aoi_oai(self, library):
        for a, b, c in itertools.product((0, 1), repeat=3):
            assert scalar(library.get("AO21"), A=a, B=b, C=c) == ((a & b) | c,)
            assert scalar(library.get("AOI21"), A=a, B=b, C=c) == (1 - ((a & b) | c),)
            assert scalar(library.get("OA21"), A=a, B=b, C=c) == ((a | b) & c,)
            assert scalar(library.get("OAI21"), A=a, B=b, C=c) == (1 - ((a | b) & c),)

    def test_tie_cells(self, library):
        assert library.get("TIE0").scalar() == (LOGIC_0,)
        assert library.get("TIE1").scalar() == (LOGIC_1,)


class TestSequentialCells:
    """A sequential cell's scalar form answers its next state."""

    def test_dff_captures_d(self, library):
        cell = library.get("DFF")
        assert scalar(cell, D=1, CK=0) == (1,)
        assert scalar(cell, D=0, CK=1) == (0,)

    def test_dffr_reset_dominates(self, library):
        cell = library.get("DFFR")
        assert scalar(cell, D=1, CK=0, RN=0) == (0,)
        assert scalar(cell, D=1, CK=0, RN=1) == (1,)
        assert scalar(cell, D=1, CK=0, RN=LOGIC_X) == (LOGIC_X,)

    def test_sdff_scan_mux(self, library):
        cell = library.get("SDFF")
        # SE=0 -> functional input, SE=1 -> serial input (paper Fig. 2).
        assert scalar(cell, D=1, SI=0, SE=0, CK=0) == (1,)
        assert scalar(cell, D=1, SI=0, SE=1, CK=0) == (0,)

    def test_sdffr_reset_dominates_scan(self, library):
        cell = library.get("SDFFR")
        assert scalar(cell, D=1, SI=1, SE=1, CK=0, RN=0) == (0,)

    def test_dbgff_debug_mux(self, library):
        cell = library.get("DBGFF")
        # DE=0 -> mission data, DE=1 -> debugger-forced value (paper Fig. 4).
        assert scalar(cell, D=0, DI=1, DE=0, CK=0) == (0,)
        assert scalar(cell, D=0, DI=1, DE=1, CK=0) == (1,)

    @given(st.sampled_from(LOGIC), st.sampled_from(LOGIC), st.sampled_from(LOGIC))
    def test_sdff_equals_mux_then_dff(self, library, d, si, se):
        """SDFF next-state must equal MUX2(D, SI, SE) feeding a DFF."""
        mux_out = scalar(library.get("MUX2"), D0=d, D1=si, S=se)
        sdff_next = scalar(library.get("SDFF"), D=d, SI=si, SE=se, CK=0)
        assert sdff_next == mux_out
