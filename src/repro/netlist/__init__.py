"""Gate-level netlist substrate.

This package provides the structural representation every other subsystem is
built on: a technology-independent standard-cell library with three-valued
semantics (:mod:`repro.netlist.cells`), the netlist graph itself
(:mod:`repro.netlist.module`), a convenience builder used by the SoC
generators (:mod:`repro.netlist.builder`), the combinational topological
order (:mod:`repro.netlist.traversal`), the compiled integer-ID execution IR every
engine runs on (:mod:`repro.netlist.compiled`) and a structural-Verilog
reader/writer (:mod:`repro.netlist.verilog`).
"""

from repro.netlist.cells import (
    Cell,
    Library,
    LOGIC_0,
    LOGIC_1,
    LOGIC_X,
    standard_library,
)
from repro.netlist.module import Instance, Net, Netlist, Pin
from repro.netlist.builder import NetlistBuilder
from repro.netlist.compiled import (
    CompiledNetlist,
    compile_netlist,
    compile_stats,
    get_compiled,
    netlist_signature,
    reset_compile_stats,
)
from repro.netlist.traversal import topological_instances
from repro.netlist.verilog import parse_verilog, write_verilog
from repro.netlist.validate import NetlistValidationError, validate_netlist

__all__ = [
    "Cell",
    "Library",
    "LOGIC_0",
    "LOGIC_1",
    "LOGIC_X",
    "standard_library",
    "Instance",
    "Net",
    "Netlist",
    "Pin",
    "NetlistBuilder",
    "CompiledNetlist",
    "compile_netlist",
    "compile_stats",
    "get_compiled",
    "netlist_signature",
    "reset_compile_stats",
    "topological_instances",
    "parse_verilog",
    "write_verilog",
    "NetlistValidationError",
    "validate_netlist",
]
