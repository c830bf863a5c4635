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
:meth:`CompiledNetlist.extension`.  The three-valued fault simulator
(:class:`~repro.simulation.fault_sim.FaultSimulator`) and the mission
constant fixpoint (:class:`~repro.atpg.view.CombinationalView`) run
:func:`run_plane_ops` on net-ID arrays; the sequential simulator evaluates
the same plane forms event by event.
"""

from __future__ import annotations

from typing import Collection, List, Optional, Sequence, Set

from repro.netlist.compiled import CompiledNetlist
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


def observation_net_names(netlist: Netlist, observe_state_inputs: bool = True,
                          state_input_roles: Optional[Sequence[str]] = None,
                          exclude_output_ports: Collection[str] = ()
                          ) -> Set[str]:
    """Observation-point net names: the observable output ports not in
    ``exclude_output_ports``, plus (optionally) the observed
    sequential-cell input nets -- a state input stays observed even when
    its net also drives an excluded port."""
    nets: Set[str] = set(netlist.observable_output_ports())
    nets.difference_update(exclude_output_ports)
    if observe_state_inputs:
        for inst in netlist.sequential_instances():
            nets.update(observed_state_input_nets(inst, state_input_roles))
    return nets
