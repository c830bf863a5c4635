"""Levelised three-valued simulation over the compiled netlist IR.

The execution model is *two bit-planes over Python ints*: the value of a net
across ``W`` patterns is a pair of arbitrary-width integers ``(p1, p0)``
where bit *i* of ``p1`` means "1 under pattern *i*", bit *i* of ``p0`` means
"0 under pattern *i*", and neither bit set means X.  Gate evaluation is pure
bitwise arithmetic (AND of the 1-planes, OR of the 0-planes, ...), so one
pass over the level-ordered op arrays of a
:class:`~repro.netlist.compiled.CompiledNetlist` simulates up to a machine
word of three-valued patterns at once.  A single pattern is simply the
width-1 case.

The per-cell plane functions are generated from each cell's declaration
(:attr:`repro.netlist.cells.Cell.plane`); the per-op program for a netlist
is resolved once per *compiled netlist* (not per simulator) through
:meth:`CompiledNetlist.extension`.

:class:`CombinationalSimulator` keeps its historical API — dict-in /
dict-out, ``order`` and ``state_nets`` attributes — while the fault
simulators use the integer-plane internals directly.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.netlist.cells import (LOGIC_0, LOGIC_1, LOGIC_X, PLANE_ENCODING,
                                 encode)
from repro.netlist.compiled import CompiledNetlist, get_compiled
from repro.netlist.module import Netlist


def _build_plane_program(compiled: CompiledNetlist):
    """Per-op / per-seq plane evaluators (memoised on the compiled netlist)."""
    return ([cell.plane for cell in compiled.op_cell],
            [cell.plane for cell in compiled.seq_cell])


def plane_program(compiled: CompiledNetlist):
    """The (combinational, sequential) plane-evaluator arrays of a netlist."""
    return compiled.extension("plane_program", _build_plane_program)


def run_plane_ops(compiled: CompiledNetlist, program, p1: List[int],
                  p0: List[int], mask: int, frozen) -> None:
    """One levelized pass over all combinational ops, in place.

    ``frozen`` flags (bytearray indexed by net ID) mark nets whose value
    must not be overwritten: ties, overrides and forced fault sites.
    """
    op_fanin = compiled.op_fanin
    op_fanout = compiled.op_fanout
    for i, fn in enumerate(program):
        args = []
        for nid in op_fanin[i]:
            if nid >= 0:
                args.append(p1[nid])
                args.append(p0[nid])
            else:
                args.append(0)
                args.append(0)
        out = fn(mask, *args)
        for pos, nid in enumerate(op_fanout[i]):
            if nid >= 0 and not frozen[nid]:
                p1[nid] = out[2 * pos]
                p0[nid] = out[2 * pos + 1]


def scalar3_program(compiled: CompiledNetlist):
    """Per-op scalar three-valued evaluators: each cell's width-1 plane form.

    Used by PODEM's five-valued simulation: each evaluator takes the input
    values positionally (``LOGIC_0/1/X``) and returns one value per output.
    """
    return compiled.extension(
        "scalar3_program", lambda c: [cell.scalar for cell in c.op_cell])


class CombinationalSimulator:
    """Evaluates the combinational network of a netlist.

    The compiled form is fetched once at construction and revalidated on
    each :meth:`evaluate` call (a cheap fingerprint check), so repeated
    evaluations reuse one shared :class:`CompiledNetlist` — as do every
    other simulator and ATPG engine targeting the same netlist.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self._compiled = get_compiled(netlist)

    def _refresh(self) -> CompiledNetlist:
        compiled = get_compiled(self.netlist)
        self._compiled = compiled
        return compiled

    @property
    def compiled(self) -> CompiledNetlist:
        return self._compiled

    @property
    def order(self) -> list:
        """Topological order of the combinational instances (shared list —
        treat as read-only)."""
        return self._compiled.instances

    @property
    def state_nets(self) -> list:
        """Net names driven by sequential cells (the pseudo-primary inputs)."""
        names = self._compiled.net_names
        return [names[nid] for nid in self._compiled.state_net_ids]

    # ------------------------------------------------------------------ #
    def evaluate(self, inputs: Mapping[str, int],
                 state: Optional[Mapping[str, int]] = None,
                 overrides: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Compute all net values.

        Parameters
        ----------
        inputs:
            Values for primary-input nets (missing inputs default to X).
        state:
            Values for sequential-cell output nets (missing default to X).
        overrides:
            Net values forced regardless of their driver — used for fault
            injection and for what-if analyses.  Overrides take precedence
            over ties.
        """
        compiled = self._refresh()
        n = compiled.n_nets
        net_id = compiled.net_id
        p1 = [0] * n
        p0 = [0] * n
        frozen = bytearray(n)
        tied = compiled.tied

        for nid in range(n):
            t = tied[nid]
            if t is not None:
                if t:
                    p1[nid] = 1
                else:
                    p0[nid] = 1
                frozen[nid] = 1

        where = self.netlist.name
        for nid in compiled.input_port_ids:
            if tied[nid] is None:
                name = compiled.net_names[nid]
                p1[nid], p0[nid] = encode(inputs.get(name, LOGIC_X),
                                          "net", name, where)

        if state:
            for name, value in state.items():
                nid = net_id.get(name)
                if nid is not None and tied[nid] is None:
                    p1[nid], p0[nid] = encode(value, "net", name, where)

        extra: Dict[str, int] = {}
        if overrides:
            for name, value in overrides.items():
                bits = encode(value, "net", name, where)
                nid = net_id.get(name)
                if nid is None:
                    extra[name] = value
                    continue
                p1[nid], p0[nid] = bits
                frozen[nid] = 1

        program, _ = plane_program(compiled)
        run_plane_ops(compiled, program, p1, p0, 1, frozen)

        values = {
            name: (LOGIC_1 if p1[nid] else (LOGIC_0 if p0[nid] else LOGIC_X))
            for nid, name in enumerate(compiled.net_names)
        }
        if extra:
            values.update(extra)
        return values

    def output_values(self, values: Mapping[str, int],
                      observable_only: bool = True) -> Dict[str, int]:
        """Extract the module output-port values from a full value map."""
        ports = (self.netlist.observable_output_ports() if observable_only
                 else self.netlist.output_ports())
        return {p: values[p] for p in ports}

    def next_state(self, values: Mapping[str, int]) -> Dict[str, int]:
        """Compute the next value of every sequential cell's output net.

        The keys of the returned dict are the *output net names* of the
        sequential instances, so the result can be fed back as ``state`` in
        the next :meth:`evaluate` call.
        """
        compiled = self._refresh()
        _, seq_program = plane_program(compiled)
        names = compiled.net_names
        tied = compiled.tied
        decode = PLANE_ENCODING
        nxt: Dict[str, int] = {}
        for i, fn in enumerate(seq_program):
            flat = []
            for nid in compiled.seq_fanin[i]:
                d = decode[values[names[nid]] if nid >= 0 else LOGIC_X]
                flat.append(d[0])
                flat.append(d[1])
            out = fn(1, *flat)
            new_value = (LOGIC_1 if out[0] else (LOGIC_0 if out[1] else LOGIC_X))
            for nid in compiled.seq_fanout[i]:
                if nid >= 0:
                    if tied[nid] is not None:
                        nxt[names[nid]] = tied[nid]
                    else:
                        nxt[names[nid]] = new_value
        return nxt


#: Sequential input-pin roles through which a fault effect is captured into
#: architectural state in mission mode.  Scan (SI/SE) and debug (DI/DE) pins
#: are excluded: nothing reads what they would capture once the tester and
#: the debugger are gone.  Clock and reset pins stay observable — a fault
#: effect reaching them stops or resets a mission register, which is very
#: much visible in the field.
MISSION_CAPTURE_ROLES = ("data", "reset", "clock")


def observed_state_input_nets(inst, roles=None):
    """Net names of ``inst``'s input pins that count as observation points.

    ``roles=None`` observes every input pin (off-line view: the scan chain
    makes all captured values readable).  With an explicit role tuple only
    the pins playing one of those roles on the cell are observed.
    """
    if roles is None:
        return [pin.net.name for pin in inst.input_pins() if pin.net is not None]
    allowed = {inst.cell.role_pin(role) for role in roles}
    allowed.discard(None)
    return [pin.net.name for pin in inst.input_pins()
            if pin.net is not None and pin.port in allowed]
