"""Shared fixtures: small hand-built circuits and generated cores.

The expensive generated objects (tiny/small SoCs, their fault lists and flow
reports) are session-scoped so the many tests that need them share one build.
"""

from __future__ import annotations

import itertools

import pytest

from repro.netlist.builder import NetlistBuilder
from repro.netlist.cells import standard_library
from repro.soc.config import SoCConfig
from repro.soc.soc_builder import build_soc


@pytest.fixture(scope="session")
def library():
    return standard_library()


def build_and_or_circuit():
    """y = (a & b) | c with an inverter tap on c — a tiny reference circuit."""
    b = NetlistBuilder("and_or")
    a = b.add_input("a")
    bb = b.add_input("b")
    c = b.add_input("c")
    y = b.add_output("y")
    z = b.add_output("z")
    ab = b.gate("AND2", a, bb)
    b.gate("OR2", ab, c, output=y)
    b.inv(c, output=z)
    return b.build()


def build_mux_scan_cell_circuit():
    """A single mux-scan flip-flop with its pins exposed (paper Fig. 2)."""
    b = NetlistBuilder("scan_cell")
    d = b.add_input("fi")
    si = b.add_input("si")
    se = b.add_input("se")
    clk = b.add_input("clk")
    q = b.add_output("fo")
    b.cell("SDFF", {"D": d, "SI": si, "SE": se, "CK": clk, "Q": q}, name="u_sdff")
    return b.build()


def build_debug_cell_circuit():
    """A single debug-controllable flip-flop (paper Fig. 4)."""
    b = NetlistBuilder("debug_cell")
    d = b.add_input("fi")
    di = b.add_input("di")
    de = b.add_input("de")
    clk = b.add_input("clk")
    q = b.add_output("fo")
    do = b.add_output("do")
    b.cell("DBGFF", {"D": d, "DI": di, "DE": de, "CK": clk, "Q": q}, name="u_dbgff")
    b.buf(q, output=do, name="u_do_buf")
    netlist = b.build()
    netlist.annotations["debug_interface"] = {
        "control_inputs": {"di": 0, "de": 0},
        "observation_outputs": ["do"],
    }
    return netlist


def build_constant_dff_circuit():
    """A resettable DFF whose data input is frozen (paper Fig. 5 / Fig. 6)."""
    b = NetlistBuilder("constant_dff")
    d = b.add_input("d")
    rst_n = b.add_input("rst_n")
    clk = b.add_input("clk")
    other = b.add_input("other")
    y = b.add_output("y")
    q = b.dff(d, clk, reset_n=rst_n, name="u_addr_ff")
    b.gate("AND2", q, other, output=y)
    return b.build()


def build_small_adder_circuit(width: int = 4):
    """A ripple adder with registered output — used by simulation tests."""
    from repro.soc.generators import ripple_adder

    b = NetlistBuilder(f"adder{width}")
    a = b.add_input_bus("a", width)
    c = b.add_input_bus("b", width)
    clk = b.add_input("clk")
    s_ports = b.add_output_bus("s", width)
    co_port = b.add_output("co")
    total, carry = ripple_adder(b, a, c)
    for i in range(width):
        b.dff(total[i], clk, q=b.new_net(f"sr{i}"), name=f"sreg{i}")
        b.buf(total[i], output=s_ports[i])
    b.buf(carry, output=co_port)
    return b.build()


@pytest.fixture()
def and_or_circuit():
    return build_and_or_circuit()


@pytest.fixture()
def scan_cell_circuit():
    return build_mux_scan_cell_circuit()


@pytest.fixture()
def debug_cell_circuit():
    return build_debug_cell_circuit()


@pytest.fixture()
def constant_dff_circuit():
    return build_constant_dff_circuit()


@pytest.fixture()
def adder_circuit():
    return build_small_adder_circuit()


@pytest.fixture(scope="session")
def tiny_soc():
    return build_soc(SoCConfig.tiny())


@pytest.fixture(scope="session")
def small_soc():
    return build_soc(SoCConfig.small())


@pytest.fixture(scope="session")
def tiny_flow_report(tiny_soc):
    from repro.api import Session

    return Session().analyze(tiny_soc)


def all_input_patterns(port_names):
    """Every 0/1 assignment over the given ports (for exhaustive checks)."""
    for values in itertools.product((0, 1), repeat=len(port_names)):
        yield dict(zip(port_names, values))
