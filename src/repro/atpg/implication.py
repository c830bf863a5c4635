"""Forward implication / constant propagation.

The heart of the paper's identification method is propagating the constants
introduced by circuit manipulation (tied debug inputs, tied address-register
bits) through the combinational logic and asking which lines end up with a
solid value during the whole mission ("untestable due to tied value" in
TetraMax terms).  :func:`implied_constants` performs that propagation; the
:class:`ImplicationEngine` additionally answers controllability questions
(which lines can still be set to 0 and to 1 from the free inputs) using a
conservative but sound analysis.

The propagation itself runs through the compiled-IR
:class:`~repro.simulation.simulator.CombinationalSimulator`, so repeated
constructions here (one per manipulation scenario) all share the netlist's
cached :class:`~repro.netlist.compiled.CompiledNetlist` and its levelized
evaluation program.
"""

from __future__ import annotations

import heapq
from typing import (Dict, List, Mapping, MutableMapping, Optional, Sequence,
                    Set)

from repro.netlist.cells import LOGIC_0, LOGIC_1, LOGIC_X
from repro.netlist.compiled import CompiledNetlist
from repro.netlist.module import Netlist
from repro.simulation.simulator import CombinationalSimulator, scalar3_program


def implied_constants(netlist: Netlist,
                      extra_constants: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
    """Net values implied by tied nets (and optional extra constants).

    Every free primary input and flip-flop output is X; tied nets take their
    tie value; the three-valued simulation then yields, for every net, either
    a definite constant (the net holds that value under *every* input
    combination) or X.  Only the definite entries are returned.
    """
    sim = CombinationalSimulator(netlist)
    overrides = dict(extra_constants) if extra_constants else None
    values = sim.evaluate({}, state=None, overrides=overrides)
    return {net: v for net, v in values.items() if v != LOGIC_X}


def sequential_implied_constants(netlist: Netlist,
                                 extra_constants: Optional[Mapping[str, int]] = None,
                                 max_iterations: int = 50) -> Dict[str, int]:
    """Constants implied through flip-flops (mission steady-state values).

    Iterates combinational constant propagation with a sequential step: a
    flip-flop whose next-state function evaluates to a definite value under
    the current constants (e.g. an asynchronous reset held active by a tied
    pin, or a capture mux whose selected leg is constant) holds that value
    for the whole mission, so its output net joins the constant set.  The
    fixpoint is what a commercial tool reports as "tied" lines after the
    paper's circuit-manipulation step, including whole debug blocks that are
    frozen behind a tied reset or enable.
    """
    sim = CombinationalSimulator(netlist)
    state_constants: Dict[str, int] = dict(extra_constants) if extra_constants else {}

    values: Dict[str, int] = {}
    for _ in range(max_iterations):
        values = sim.evaluate({}, state=None, overrides=state_constants or None)
        changed = False
        for inst in netlist.sequential_instances():
            pin_values = {
                pin.port: (values[pin.net.name] if pin.net is not None else LOGIC_X)
                for pin in inst.input_pins()
            }
            next_value = inst.cell.evaluate(pin_values).get("__next__", LOGIC_X)
            if next_value == LOGIC_X:
                continue
            for out_pin in inst.output_pins():
                net = out_pin.net
                if net is None or net.tied is not None:
                    continue
                if state_constants.get(net.name) != next_value:
                    state_constants[net.name] = next_value
                    changed = True
        if not changed:
            break

    values = sim.evaluate({}, state=None, overrides=state_constants or None)
    return {net: v for net, v in values.items() if v != LOGIC_X}


def forward_implications(compiled: CompiledNetlist,
                         seeds: Mapping[int, int],
                         base: Sequence[int],
                         stats: Optional[MutableMapping[str, int]] = None
                         ) -> Dict[int, int]:
    """Event-driven forward propagation of ``seeds`` over a ``base`` valuation.

    ``base`` is a full per-net-ID valuation (typically the three-valued
    constant fixpoint of the netlist); ``seeds`` overrides individual nets.
    The returned dict holds every net whose value differs from ``base`` (plus
    the seeds themselves) after propagating through the combinational ops.

    The worklist is a min-heap of dirty op indices with a membership set for
    dedupe, processed in ascending topological order.  Because every fanin of
    an op is driven by a lower-indexed op, each op is evaluated at most once
    per call; and an op whose re-evaluation reproduces the value a net
    already holds does not re-enqueue that net's loads — the (net, value)
    dedupe that keeps repeated learning passes linear.  ``stats`` (if given)
    accumulates the number of op evaluations under ``"op_evals"``.
    """
    program = scalar3_program(compiled)
    op_fanin = compiled.op_fanin
    op_fanout = compiled.op_fanout
    net_load_ops = compiled.net_load_ops
    tied = compiled.tied

    values: Dict[int, int] = {}
    heap: List[int] = []
    pending: Set[int] = set()

    def schedule_loads(nid: int) -> None:
        for op, _pos in net_load_ops[nid]:
            if op not in pending:
                pending.add(op)
                heapq.heappush(heap, op)

    for nid, value in seeds.items():
        values[nid] = value
        if value != base[nid]:
            schedule_loads(nid)

    evals = 0
    while heap:
        op = heapq.heappop(heap)
        pending.discard(op)
        evals += 1
        ins = tuple(values.get(n, base[n]) if n >= 0 else LOGIC_X
                    for n in op_fanin[op])
        outs = program[op](*ins)
        for out_net, value in zip(op_fanout[op], outs):
            if out_net < 0 or tied[out_net] is not None:
                continue
            if value == values.get(out_net, base[out_net]):
                continue
            values[out_net] = value
            schedule_loads(out_net)

    if stats is not None:
        stats["op_evals"] = stats.get("op_evals", 0) + evals
    return values


class ImplicationEngine:
    """Constant propagation plus simple controllability reasoning.

    The engine pre-computes the constants implied by the netlist's tied nets.
    It exposes:

    * :meth:`constant_of` — the implied mission-mode constant of a net;
    * :meth:`can_take` — whether a net can (conservatively) still take a
      given logic value by some assignment of the free inputs;
    * :meth:`propagation_blocked` — whether a fault effect on a given net is
      structurally prevented from passing through a specific load gate
      because a side input is held at a controlling constant.
    """

    def __init__(self, netlist: Netlist,
                 extra_constants: Optional[Mapping[str, int]] = None,
                 through_sequential: bool = True) -> None:
        self.netlist = netlist
        if through_sequential:
            self.constants = sequential_implied_constants(netlist, extra_constants)
        else:
            self.constants = implied_constants(netlist, extra_constants)

    def constant_of(self, net_name: str) -> Optional[int]:
        """The implied constant of a net, or None if the net can still toggle."""
        return self.constants.get(net_name)

    def can_take(self, net_name: str, value: int) -> bool:
        """Conservatively: can the net take ``value`` for some free-input assignment?

        A net with an implied constant can only take that constant; any other
        net is assumed (optimistically for testability, conservatively for
        untestability claims) to be able to take both values.
        """
        constant = self.constants.get(net_name)
        if constant is None:
            return True
        return constant == value

    def propagation_blocked(self, through_instance, from_pin_port: str,
                            untrusted_nets: Optional[Set[str]] = None) -> bool:
        """True if a fault effect entering ``through_instance`` at pin
        ``from_pin_port`` can never influence the instance output.

        Sound (never claims "blocked" wrongly) but incomplete: it only checks
        side inputs held at controlling constants for simple gate families
        and select/enable constants for multiplexers and scan/debug cells.

        ``untrusted_nets`` names nets whose implied constants must not be
        relied upon — the caller passes the fanout cone of the fault site, on
        which the fault effect itself may overturn the implied value (e.g. a
        gate whose both inputs branch from the faulty net).
        """
        cell = through_instance.cell

        def side_constant(net) -> Optional[int]:
            if net is None:
                return None
            if untrusted_nets is not None and net.name in untrusted_nets:
                return None
            return self.constants.get(net.name)

        side_values: Dict[str, Optional[int]] = {}
        for pin in through_instance.input_pins():
            if pin.port == from_pin_port:
                continue
            side_values[pin.port] = side_constant(pin.net)

        # A side input at an AND/NAND/OR/NOR gate's controlling value forces
        # the output whatever the fault effect does.
        control = cell.control
        if control and control[0] is not None:
            return any(v == control[0] for v in side_values.values())

        if cell.name == "MUX2":
            sel = side_values.get("S")
            if from_pin_port == "D0" and sel == LOGIC_1:
                return True
            if from_pin_port == "D1" and sel == LOGIC_0:
                return True
            if from_pin_port == "S":
                d0 = side_values.get("D0")
                d1 = side_values.get("D1")
                return d0 is not None and d0 == d1
            return False

        if cell.name in ("AO21", "AOI21"):
            # Y = (A&B)|C  (possibly inverted)
            if from_pin_port in ("A", "B"):
                other = "B" if from_pin_port == "A" else "A"
                return side_values.get(other) == LOGIC_0 or side_values.get("C") == LOGIC_1
            if from_pin_port == "C":
                return (side_values.get("A") == LOGIC_1
                        and side_values.get("B") == LOGIC_1)
            return False

        if cell.name in ("OA21", "OAI21"):
            # Y = (A|B)&C (possibly inverted)
            if from_pin_port in ("A", "B"):
                other = "B" if from_pin_port == "A" else "A"
                return side_values.get(other) == LOGIC_1 or side_values.get("C") == LOGIC_0
            if from_pin_port == "C":
                return (side_values.get("A") == LOGIC_0
                        and side_values.get("B") == LOGIC_0)
            return False

        if cell.sequential:
            # Propagation through a flip-flop's data path is blocked when the
            # capture mux constantly selects the other leg (e.g. SE tied to 0
            # blocks SI; DE tied to 0 blocks DI; reset held active blocks D).
            reset_pin = cell.role_pin("reset")
            if reset_pin and side_values.get(reset_pin) == cell.role_value("reset_active"):
                return True
            se_pin = cell.role_pin("scan_enable")
            se_active = cell.role_value("scan_enable_active")
            if se_pin:
                se_const = side_constant(through_instance.pin(se_pin).net)
                if from_pin_port == cell.role_pin("scan_in"):
                    if se_const is not None and se_const != se_active:
                        return True
                if from_pin_port == cell.role_pin("data"):
                    if se_const is not None and se_const == se_active:
                        return True
            de_pin = cell.role_pin("debug_enable")
            de_active = cell.role_value("debug_enable_active")
            if de_pin:
                de_const = side_constant(through_instance.pin(de_pin).net)
                if from_pin_port == cell.role_pin("debug_in"):
                    if de_const is not None and de_const != de_active:
                        return True
                if from_pin_port == cell.role_pin("data"):
                    if de_const is not None and de_const == de_active:
                        return True
            return False

        # XOR/XNOR, BUF, INV, adders: a definite change on one input always
        # changes (or may change) the output — never blocked by constants.
        return False
