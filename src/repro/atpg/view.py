"""PODEM's combinational view of a netlist, built once per netlist state.

The view is the one owner of the mission constants that circuit
manipulation introduces.  The tied-value analysis
(:class:`~repro.atpg.tie_analysis.TieAnalysis`), every search engine
(:class:`~repro.atpg.podem.Podem`, :class:`~repro.atpg.dalg.DAlg`) and the
static prover (:class:`~repro.analysis.prover.StaticAnalysis`) reason about
the same machine:

* fixed state — flip-flop outputs frozen to a mission constant by the
  circuit manipulation (directly tied, or held by a tied reset/enable: the
  constant fixpoint runs through each flip-flop's next-state function);
* controllable points — primary-input nets and sequential-cell output nets
  that are neither tied nor fixed;
* observation points — observable output ports plus sequential-cell input
  nets whose capture path the constants do not block
  (:meth:`CombinationalView.blocked`, which also answers the tied-value
  analysis's propagation questions);
* the fault-free machine under the empty assignment: the three-valued
  constant fixpoint of ties and fixed state, also kept as the dual-rail
  planes a :class:`~repro.atpg.podem.LiveMachine` starts from.

:func:`get_view` memoises one :class:`CombinationalView` per compiled
netlist (:meth:`~repro.netlist.compiled.CompiledNetlist.extension`), so a
tie or structural edit gets a new view through the compile cache's
fingerprint and signature revalidation, and structurally identical clones
share one.  Every table is read-only once built.
"""

from __future__ import annotations

from typing import Collection, Dict, Optional, Set, Tuple

from repro.faults.models import Fault
from repro.netlist.cells import (LOGIC_0, LOGIC_1, LOGIC_X, PLANE_ENCODING,
                                 Cell)
from repro.netlist.compiled import NO_NET, CompiledNetlist, get_compiled
from repro.netlist.module import Netlist
from repro.simulation.simulator import plane_program, run_plane_ops


def _pin_blocked(cell: Cell, pos: int, sides: Tuple[int, ...]) -> bool:
    """Can an effect entering input ``pos`` of ``cell`` never pass, with
    the other inputs held at ``sides`` (one 0/1/X per input pin)?

    A combinational cell answers from its declaration: the pin is blocked
    when, for every 0/1 completion of the X side inputs, flipping it leaves
    every output of the ``word`` form unchanged.  The completions run as
    the lanes of one word.

    A flip-flop answers by its pin roles, because mission mode observes an
    effect that reaches a clock or reset pin: the pin is blocked when the
    reset is held active, or when a scan or debug enable constantly
    selects the other capture leg.
    """
    if not cell.sequential:
        free = [k for k, v in enumerate(sides) if v == LOGIC_X and k != pos]
        lanes = 1 << len(free)
        m = (1 << lanes) - 1
        args = [m if v == LOGIC_1 else 0 for v in sides]
        for bit, k in enumerate(free):
            args[k] = sum(1 << j for j in range(lanes) if j >> bit & 1)
        args[pos] = 0
        low = cell.word(m, *args)
        args[pos] = m
        return cell.word(m, *args) == low

    port = cell.inputs[pos]

    def held(role: str) -> int:
        pin = cell.role_pin(role)
        return LOGIC_X if pin is None else sides[cell.inputs.index(pin)]

    if held("reset") == cell.role_value("reset_active"):
        return True
    for enable, leg in (("scan_enable", "scan_in"),
                        ("debug_enable", "debug_in")):
        select = held(enable)
        if select == LOGIC_X:
            continue
        active = select == cell.role_value(enable + "_active")
        if port == cell.role_pin("data" if active else leg):
            return True
    return False


class CombinationalView:
    """Mission constants, controllable / observation points and the
    settled fault-free machine of one netlist state (see the module
    docstring)."""

    def __init__(self, compiled: CompiledNetlist) -> None:
        self.compiled = compiled
        tied = compiled.tied
        n = compiled.n_nets
        ops, seq_ops = plane_program(compiled)

        # The constant fixpoint: sweep the ops over ties and fixed state,
        # fix every untied flip-flop output whose next state is definite,
        # repeat.  A definite three-valued value never flips when more
        # sources become definite, so each pass only adds constants.
        p1 = [0] * n
        p0 = [0] * n
        frozen = bytearray(n)
        for nid, t in enumerate(tied):
            if t is not None:
                p1[nid], p0[nid] = PLANE_ENCODING[t]
                frozen[nid] = 1
        #: Flip-flop output nets frozen to a mission constant (directly
        #: tied ones excluded).
        self.fixed_ids: Dict[int, int] = {}
        grew = True
        while grew:
            run_plane_ops(compiled, ops, p1, p0, 1, frozen)
            grew = False
            for fn, fanin, fanout in zip(seq_ops, compiled.seq_fanin,
                                         compiled.seq_fanout):
                args = []
                for nid in fanin:
                    args += (p1[nid], p0[nid]) if nid >= 0 else (0, 0)
                y1, y0 = fn(1, *args)
                if not (y1 or y0):
                    continue
                for nid in fanout:
                    if (nid >= 0 and tied[nid] is None
                            and nid not in self.fixed_ids):
                        self.fixed_ids[nid] = LOGIC_1 if y1 else LOGIC_0
                        p1[nid], p0[nid] = y1, y0
                        grew = True
        #: Three-valued constant fixpoint: the good machine under the
        #: empty assignment (ties, fixed state and everything they imply).
        self.base: Tuple[int, ...] = tuple(
            LOGIC_1 if a else (LOGIC_0 if b else LOGIC_X)
            for a, b in zip(p1, p0))
        #: The same machine as dual-rail planes with both lanes (good and
        #: faulty) set, the start of every live search machine.
        self.p1: Tuple[int, ...] = tuple(3 * bit for bit in p1)
        self.p0: Tuple[int, ...] = tuple(3 * bit for bit in p0)
        self._blocked_memo: Dict[Tuple[int, int, Tuple[int, ...]], bool] = {}

        self.controllable_ids: Set[int] = {
            nid for nid in compiled.input_port_ids if tied[nid] is None}
        for fanout in compiled.seq_fanout:
            for nid in fanout:
                if (nid >= 0 and tied[nid] is None
                        and nid not in self.fixed_ids):
                    self.controllable_ids.add(nid)

        self.observation_ids: Set[int] = set(compiled.observable_output_ids)
        for i, fanin in enumerate(compiled.seq_fanin):
            for pos, nid in enumerate(fanin):
                if nid >= 0 and not self.blocked("seq", i, pos):
                    self.observation_ids.add(nid)

        #: State-output net -> driving sequential instance index (the
        #: two-time-frame launch justification).
        self.state_driver: Dict[int, int] = {}
        for i, fanout in enumerate(compiled.seq_fanout):
            for nid in fanout:
                if nid >= 0:
                    self.state_driver[nid] = i

    def constant(self, nid: int) -> Optional[int]:
        """The mission constant of a net, or None if it can still toggle."""
        value = self.base[nid]
        return None if value == LOGIC_X else value

    def blocked(self, kind: str, index: int, pos: int,
                untrusted: Optional[Collection[int]] = None) -> bool:
        """Is an effect entering input ``pos`` of op (``kind="op"``) or
        flip-flop (``kind="seq"``) ``index`` blocked by the constants?

        ``untrusted`` holds net IDs whose constants must not be relied on —
        the fanout cone of a fault site, whose effect may overturn them.
        """
        compiled = self.compiled
        if kind == "op":
            cell, fanin = compiled.op_cell[index], compiled.op_fanin[index]
        else:
            cell, fanin = compiled.seq_cell[index], compiled.seq_fanin[index]
        base = self.base
        sides = tuple(
            LOGIC_X if k == pos or nid < 0
            or (untrusted is not None and nid in untrusted) else base[nid]
            for k, nid in enumerate(fanin))
        # Keyed by cell identity: the compiled netlist keeps every cell
        # alive as long as this view.
        key = (id(cell), pos, sides)
        memo = self._blocked_memo
        answer = memo.get(key)
        if answer is None:
            answer = memo[key] = _pin_blocked(cell, pos, sides)
        return answer

    # ------------------------------------------------------------------ #
    # fault-site resolution
    # ------------------------------------------------------------------ #
    def fault_refs(self, fault: Fault) -> Tuple[Optional[int], int, int]:
        """Resolve ``(stem net id, branch op, branch pin pos)`` for a fault.

        A *stem* fault (module port or instance output pin) forces the whole
        net in the faulty machine; a *branch* fault perturbs one input pin
        of a combinational op.  Either field may be absent.
        """
        compiled = self.compiled
        if fault.is_port_fault:
            return compiled.id_of(fault.site), -1, -1
        kind, index, pos, is_input = compiled.pin_ref(fault.site)
        nid = compiled.pin_net_id(kind, index, pos, is_input)
        if nid == NO_NET:
            return None, -1, -1
        if not is_input:
            return nid, -1, -1
        if kind == "op":
            return None, index, pos
        # Branch fault on a sequential input pin: the net itself is not
        # perturbed within the combinational time frame.
        return None, -1, -1

    def excitation_id(self, fault: Fault) -> Optional[int]:
        """Net whose good value must be the opposite of the stuck value."""
        compiled = self.compiled
        if fault.is_port_fault:
            return compiled.id_of(fault.site)
        kind, index, pos, is_input = compiled.pin_ref(fault.site)
        nid = compiled.pin_net_id(kind, index, pos, is_input)
        return nid if nid != NO_NET else None


def get_view(netlist: Netlist) -> CombinationalView:
    """The shared :class:`CombinationalView` of a netlist's current state."""
    return get_compiled(netlist).extension("combinational_view",
                                           CombinationalView)
