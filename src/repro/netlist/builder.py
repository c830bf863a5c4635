"""Convenience layer for constructing netlists programmatically.

The SoC generators in :mod:`repro.soc` describe hardware in terms of buses
and gate-level helper calls; :class:`NetlistBuilder` turns those calls into
:class:`~repro.netlist.module.Netlist` structure, handling net-name
uniquification and instance naming.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.netlist.cells import Library
from repro.netlist.module import INPUT, OUTPUT, Instance, Netlist


class NetlistBuilder:
    """Incrementally builds a flat :class:`Netlist`."""

    def __init__(self, name: str, library: Optional[Library] = None) -> None:
        self.netlist = Netlist(name, library)
        self._net_counter = 0
        self._inst_counter: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # ports and nets
    # ------------------------------------------------------------------ #
    def add_input(self, name: str) -> str:
        self.netlist.add_port(name, INPUT)
        return name

    def add_output(self, name: str) -> str:
        self.netlist.add_port(name, OUTPUT)
        return name

    def add_input_bus(self, name: str, width: int) -> List[str]:
        """Declare ``width`` input ports ``name[0] .. name[width-1]`` (LSB first)."""
        return [self.add_input(f"{name}[{i}]") for i in range(width)]

    def add_output_bus(self, name: str, width: int) -> List[str]:
        return [self.add_output(f"{name}[{i}]") for i in range(width)]

    def new_net(self, hint: str = "n") -> str:
        """Return a fresh internal net name."""
        while True:
            self._net_counter += 1
            name = f"{hint}_{self._net_counter}"
            if name not in self.netlist.nets:
                self.netlist.get_or_create_net(name)
                return name

    def new_bus(self, hint: str, width: int) -> List[str]:
        return [self.new_net(f"{hint}{i}") for i in range(width)]

    def _unique_instance_name(self, prefix: str) -> str:
        count = self._inst_counter.get(prefix, 0)
        while True:
            name = f"{prefix}_{count}"
            count += 1
            if name not in self.netlist.instances:
                self._inst_counter[prefix] = count
                return name

    # ------------------------------------------------------------------ #
    # gate-level helpers
    # ------------------------------------------------------------------ #
    def cell(self, cell_name: str, connections: Dict[str, str],
             name: Optional[str] = None) -> Instance:
        """Instantiate an arbitrary library cell."""
        inst_name = name or self._unique_instance_name(cell_name.lower())
        return self.netlist.add_instance(inst_name, cell_name, connections)

    def gate(self, cell_name: str, *input_nets: str, output: Optional[str] = None,
             name: Optional[str] = None) -> str:
        """Instantiate a single-output combinational gate; returns the output net.

        Inputs are assigned to the cell's input pins in declaration order.
        """
        cell = self.netlist.library.get(cell_name)
        if len(cell.outputs) != 1:
            raise ValueError(f"gate() requires a single-output cell, got {cell_name}")
        if len(input_nets) != len(cell.inputs):
            raise ValueError(
                f"{cell_name} expects {len(cell.inputs)} inputs, got {len(input_nets)}"
            )
        out = output or self.new_net(cell_name.lower())
        connections = dict(zip(cell.inputs, input_nets))
        connections[cell.outputs[0]] = out
        self.cell(cell_name, connections, name=name)
        return out

    def buf(self, a: str, output: Optional[str] = None,
            name: Optional[str] = None) -> str:
        return self.gate("BUF", a, output=output, name=name)

    def inv(self, a: str, output: Optional[str] = None,
            name: Optional[str] = None) -> str:
        return self.gate("INV", a, output=output, name=name)

    def and_(self, *nets: str, output: Optional[str] = None) -> str:
        return self._tree("AND", nets, output)

    def or_(self, *nets: str, output: Optional[str] = None) -> str:
        return self._tree("OR", nets, output)

    def nor(self, a: str, b: str, output: Optional[str] = None) -> str:
        return self.gate("NOR2", a, b, output=output)

    def xor(self, a: str, b: str, output: Optional[str] = None) -> str:
        return self.gate("XOR2", a, b, output=output)

    def xnor(self, a: str, b: str, output: Optional[str] = None) -> str:
        return self.gate("XNOR2", a, b, output=output)

    def mux(self, sel: str, d0: str, d1: str, output: Optional[str] = None) -> str:
        """2:1 mux: sel=0 selects d0."""
        return self.gate("MUX2", d0, d1, sel, output=output)

    def tie0(self, output: Optional[str] = None) -> str:
        return self.gate("TIE0", output=output)

    def tie1(self, output: Optional[str] = None) -> str:
        return self.gate("TIE1", output=output)

    def _tree(self, base: str, nets: Sequence[str], output: Optional[str]) -> str:
        """Build a balanced tree of 2/3/4-input gates for wide AND/OR."""
        if not nets:
            raise ValueError(f"{base} tree requires at least one input")
        level = list(nets)
        if len(level) == 1:
            return self.buf(level[0], output=output)
        while len(level) > 1:
            nxt: List[str] = []
            i = 0
            while i < len(level):
                chunk = level[i:i + 4]
                i += 4
                if len(chunk) == 1:
                    nxt.append(chunk[0])
                else:
                    is_last = i >= len(level) and not nxt
                    out = output if (is_last and len(chunk) == len(level)) else None
                    nxt.append(self.gate(f"{base}{len(chunk)}", *chunk, output=out))
            level = nxt
        if output is not None and level[0] != output:
            return self.buf(level[0], output=output)
        return level[0]

    # ------------------------------------------------------------------ #
    # sequential helpers
    # ------------------------------------------------------------------ #
    def dff(self, d: str, clk: str, q: Optional[str] = None,
            reset_n: Optional[str] = None, name: Optional[str] = None) -> str:
        """Instantiate a DFF (or DFFR when ``reset_n`` is given); returns Q net."""
        q_net = q or self.new_net("q")
        if reset_n is None:
            self.cell("DFF", {"D": d, "CK": clk, "Q": q_net}, name=name)
        else:
            self.cell("DFFR", {"D": d, "CK": clk, "RN": reset_n, "Q": q_net}, name=name)
        return q_net

    def sdff(self, d: str, si: str, se: str, clk: str, q: Optional[str] = None,
             reset_n: Optional[str] = None, name: Optional[str] = None) -> str:
        """Instantiate a mux-scan flip-flop; returns the Q net."""
        q_net = q or self.new_net("q")
        if reset_n is None:
            self.cell("SDFF", {"D": d, "SI": si, "SE": se, "CK": clk, "Q": q_net},
                      name=name)
        else:
            self.cell("SDFFR", {"D": d, "SI": si, "SE": se, "CK": clk,
                                "RN": reset_n, "Q": q_net}, name=name)
        return q_net

    def register(self, d_bus: Sequence[str], clk: str, prefix: str = "reg",
                 reset_n: Optional[str] = None) -> List[str]:
        """A word of plain DFFs; returns the Q bus."""
        return [
            self.dff(d, clk, q=self.new_net(f"{prefix}_q{i}"), reset_n=reset_n,
                     name=(f"{prefix}_ff{i}"
                           if f"{prefix}_ff{i}" not in self.netlist.instances
                           else None))
            for i, d in enumerate(d_bus)
        ]

    def build(self) -> Netlist:
        """Return the constructed netlist."""
        return self.netlist
