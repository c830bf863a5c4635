"""Structural-Verilog reader and writer.

Only the subset needed for flat gate-level netlists is supported (the same
subset an ATPG tool consumes): one module per file, scalar ports, named
port connections, no behavioural constructs.  Escaped identifiers and bit
selects such as ``addr[3]`` are treated as plain net names.

The writer emits a netlist that the parser can read back (round-trip safe);
this is exercised by property-based tests.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.netlist.cells import Library, standard_library
from repro.netlist.module import INPUT, OUTPUT, Netlist
from repro.netlist.validate import NetlistValidationError, validate_netlist


class VerilogParseError(Exception):
    """Raised on malformed structural Verilog input."""


_IDENT = r"[A-Za-z_][A-Za-z0-9_$.\[\]]*"
_MODULE_RE = re.compile(rf"module\s+({_IDENT})\s*\((.*?)\)\s*;", re.S)
_PORT_DECL_RE = re.compile(rf"(input|output)\s+(.+?);", re.S)
_INSTANCE_RE = re.compile(
    rf"({_IDENT})\s+(\\?{_IDENT})\s*\((.*?)\)\s*;", re.S)
_CONN_RE = re.compile(rf"\.({_IDENT})\s*\(\s*(\\?{_IDENT})?\s*\)")
_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)


def _sanitize(name: str) -> str:
    return name.strip().lstrip("\\")


def parse_verilog(text: str, library: Optional[Library] = None) -> Netlist:
    """Parse a flat structural-Verilog module into a :class:`Netlist`.

    The parsed netlist must pass :func:`~repro.netlist.validate.
    validate_netlist` (every input pin connected to a driven net, every
    output port driven, no combinational loop); otherwise, and on an
    unknown pin or a second driver of a net, :class:`VerilogParseError`
    names the problems.
    """
    library = library or standard_library()
    text = _COMMENT_RE.sub("", text)

    m = _MODULE_RE.search(text)
    if m is None:
        raise VerilogParseError("no module declaration found")
    module_name = m.group(1)
    body_start = m.end()
    end = text.find("endmodule", body_start)
    if end < 0:
        raise VerilogParseError(f"module {module_name!r} missing endmodule")
    body = text[body_start:end]

    netlist = Netlist(module_name, library)

    # Port directions come from the input/output declarations in the body.
    consumed_spans: List[Tuple[int, int]] = []
    for decl in _PORT_DECL_RE.finditer(body):
        direction = INPUT if decl.group(1) == "input" else OUTPUT
        for raw in decl.group(2).split(","):
            name = _sanitize(raw)
            if not name:
                continue
            netlist.add_port(name, direction)
        consumed_spans.append(decl.span())

    # Remove the port declarations so they are not matched as instances.
    chunks = []
    prev = 0
    for start, stop in consumed_spans:
        chunks.append(body[prev:start])
        prev = stop
    chunks.append(body[prev:])
    instance_body = "".join(chunks)

    for inst_match in _INSTANCE_RE.finditer(instance_body):
        cell_name = inst_match.group(1)
        inst_name = _sanitize(inst_match.group(2))
        if cell_name in ("wire", "module", "endmodule", "input", "output"):
            continue
        if cell_name not in library:
            raise VerilogParseError(
                f"unknown cell {cell_name!r} instantiated as {inst_name!r}"
            )
        connections: Dict[str, str] = {}
        for conn in _CONN_RE.finditer(inst_match.group(3)):
            pin = conn.group(1)
            net = conn.group(2)
            if net is None:
                continue  # unconnected pin: .PIN()
            connections[pin] = _sanitize(net)
        try:
            netlist.add_instance(inst_name, cell_name, connections)
        except (KeyError, ValueError) as exc:
            raise VerilogParseError(exc.args[0]) from None

    try:
        validate_netlist(netlist)
    except NetlistValidationError as exc:
        raise VerilogParseError(f"module {module_name!r}: {exc}") from None
    return netlist


def _escape(name: str) -> str:
    """Escape identifiers containing characters Verilog requires escaping for."""
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_$]*", name):
        return name
    return name  # kept readable; parser accepts [] and . in identifiers


def write_verilog(netlist: Netlist) -> str:
    """Serialise a netlist as flat structural Verilog."""
    lines: List[str] = []
    port_names = list(netlist.ports)
    lines.append(f"module {netlist.name} (")
    lines.append("    " + ",\n    ".join(_escape(p) for p in port_names))
    lines.append(");")
    lines.append("")

    inputs = [p for p, d in netlist.ports.items() if d == INPUT]
    outputs = [p for p, d in netlist.ports.items() if d == OUTPUT]
    if inputs:
        lines.append("  input " + ", ".join(_escape(p) for p in inputs) + ";")
    if outputs:
        lines.append("  output " + ", ".join(_escape(p) for p in outputs) + ";")
    lines.append("")

    internal = [n for n in netlist.nets if n not in netlist.ports]
    for net in sorted(internal):
        lines.append(f"  wire {_escape(net)};")
    if internal:
        lines.append("")

    for inst in netlist.instances.values():
        conns = []
        for port, pin in inst.pins.items():
            if pin.net is None:
                conns.append(f".{port}()")
            else:
                conns.append(f".{port}({_escape(pin.net.name)})")
        lines.append(f"  {inst.cell.name} {_escape(inst.name)} ({', '.join(conns)});")

    lines.append("")
    lines.append("endmodule")
    return "\n".join(lines)
