#!/usr/bin/env python3
"""Using the flow on your own netlist (structural Verilog in, fault list out).

The identification flow is not tied to the built-in SoC generator: any flat
gate-level netlist mapped onto the library cells can be analysed.  This
example builds a small peripheral block by hand, serialises it to structural
Verilog, parses it back (as you would parse your own design), annotates the
mission configuration (debug pins, memory map, scan) and runs the flow.

Run with:  python examples/custom_netlist_flow.py
"""

from repro.api import Session
from repro.memory.memory_map import MemoryMap, MemoryRegion
from repro.netlist.builder import NetlistBuilder
from repro.netlist.verilog import parse_verilog, write_verilog
from repro.scan.insertion import insert_scan


def build_peripheral() -> str:
    """A tiny memory-mapped peripheral: an 8-bit address decoder + data register
    with a debug-observable copy of its state."""
    b = NetlistBuilder("uart_like_peripheral")
    clk = b.add_input("clk")
    rst_n = b.add_input("rst_n")
    addr = b.add_input_bus("addr", 8)
    wdata = b.add_input_bus("wdata", 8)
    write = b.add_input("write")
    dbg_force = b.add_input("dbg_force")
    dbg_value = b.add_input("dbg_value")
    rdata = b.add_output_bus("rdata", 8)
    dbg_state = b.add_output_bus("dbg_state", 8)

    # Address decode: the register lives at address 0x10.
    match_bits = [b.inv(addr[i]) if ((0x10 >> i) & 1) == 0 else b.buf(addr[i])
                  for i in range(8)]
    selected = b.and_(*match_bits)
    enable = b.gate("AND2", selected, write)

    for i in range(8):
        hold_or_load = b.mux(enable, f"reg_q{i}", wdata[i])
        forced = b.mux(dbg_force, hold_or_load, dbg_value)
        b.dff(forced, clk, q=f"reg_q{i}", reset_n=rst_n, name=f"reg_ff{i}")
        b.buf(f"reg_q{i}", output=rdata[i])
        b.buf(f"reg_q{i}", output=dbg_state[i], name=f"dbg_buf{i}")

    insert_scan(b.netlist, n_chains=1, buffer_every=2)
    return write_verilog(b.build())


def main() -> None:
    verilog_text = build_peripheral()
    print("Structural Verilog of the peripheral (excerpt):")
    print("\n".join(verilog_text.splitlines()[:12]))
    print("  ...")
    print()

    # Parse it back, exactly as an external design would be brought in.
    netlist = parse_verilog(verilog_text)

    # Describe the mission configuration.
    netlist.annotations["debug_interface"] = {
        "control_inputs": {"dbg_force": 0, "dbg_value": 0},
        "observation_outputs": [f"dbg_state[{i}]" for i in range(8)],
    }
    netlist.annotations["address_registers"] = []  # no address registers here
    memory_map = MemoryMap(8, [MemoryRegion("regs", 0x10, 0x08)])

    report = Session().analyze(netlist, memory_map=memory_map)
    print(report.to_table())
    print()
    print("Example pruned faults:")
    for fault in sorted(report.online_untestable)[:12]:
        print(f"  {fault}")


if __name__ == "__main__":
    main()
