"""PODEM's combinational view of a netlist, built once per netlist state.

Every search engine (:class:`~repro.atpg.podem.Podem`,
:class:`~repro.atpg.dalg.DAlg`) and the static prover
(:class:`~repro.analysis.prover.StaticAnalysis`) reason about the same
machine:

* fixed state — flip-flop outputs frozen to a mission constant by the
  circuit manipulation (directly tied, or held by a tied reset/enable, see
  :func:`repro.atpg.implication.sequential_implied_constants`);
* controllable points — primary-input nets and sequential-cell output nets
  that are neither tied nor fixed;
* observation points — observable output ports plus sequential-cell input
  nets whose capture path the constants do not block;
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

from typing import Dict, Optional, Set, Tuple

from repro.atpg.implication import ImplicationEngine, get_implication
from repro.faults.models import Fault
from repro.netlist.cells import LOGIC_0, LOGIC_1, LOGIC_X, PLANE_ENCODING
from repro.netlist.compiled import NO_NET, CompiledNetlist, get_compiled
from repro.netlist.module import Netlist
from repro.simulation.simulator import plane_program, run_plane_ops


class CombinationalView:
    """Fixed state, controllable / observation points and the settled
    fault-free machine of one netlist state (see the module docstring)."""

    def __init__(self, compiled: CompiledNetlist,
                 implication: ImplicationEngine) -> None:
        self.compiled = compiled
        self.implication = implication
        names = compiled.net_names
        tied = compiled.tied

        # Flip-flop output nets frozen to a mission constant.
        self.fixed_ids: Dict[int, int] = {}
        for fanout in compiled.seq_fanout:
            for nid in fanout:
                if nid < 0 or tied[nid] is not None:
                    continue
                constant = implication.constant_of(names[nid])
                if constant is not None:
                    self.fixed_ids[nid] = constant
        self.fixed_state: Dict[str, int] = {
            names[nid]: value for nid, value in self.fixed_ids.items()}

        self.controllable_ids: Set[int] = {
            nid for nid in compiled.input_port_ids if tied[nid] is None}
        for fanout in compiled.seq_fanout:
            for nid in fanout:
                if (nid >= 0 and tied[nid] is None
                        and nid not in self.fixed_ids):
                    self.controllable_ids.add(nid)
        self.controllable: Set[str] = {
            names[nid] for nid in self.controllable_ids}

        self.observation_ids: Set[int] = set(compiled.observable_output_ids)
        for i, fanin in enumerate(compiled.seq_fanin):
            inst = compiled.seq_instances[i]
            for pos, nid in enumerate(fanin):
                if nid < 0:
                    continue
                port = compiled.seq_cell[i].inputs[pos]
                if implication.propagation_blocked(inst, port):
                    continue
                self.observation_ids.add(nid)
        self.observation: Set[str] = {
            names[nid] for nid in self.observation_ids}

        #: State-output net -> driving sequential instance index (the
        #: two-time-frame launch justification).
        self.state_driver: Dict[int, int] = {}
        for i, fanout in enumerate(compiled.seq_fanout):
            for nid in fanout:
                if nid >= 0:
                    self.state_driver[nid] = i

        # The fault-free machine: one levelized width-1 sweep over ties and
        # fixed state, every other source X.
        n = compiled.n_nets
        p1 = [0] * n
        p0 = [0] * n
        frozen = bytearray(n)
        for nid, t in enumerate(tied):
            if t is not None:
                p1[nid], p0[nid] = PLANE_ENCODING[t]
                frozen[nid] = 1
        for nid, value in self.fixed_ids.items():
            p1[nid], p0[nid] = PLANE_ENCODING[value]
        run_plane_ops(compiled, plane_program(compiled)[0], p1, p0, 1, frozen)
        #: Three-valued constant fixpoint: the good machine under the
        #: empty assignment (ties, fixed state and everything they imply).
        self.base: Tuple[int, ...] = tuple(
            LOGIC_1 if a else (LOGIC_0 if b else LOGIC_X)
            for a, b in zip(p1, p0))
        #: The same machine as dual-rail planes with both lanes (good and
        #: faulty) set, the start of every live search machine.
        self.p1: Tuple[int, ...] = tuple(3 * bit for bit in p1)
        self.p0: Tuple[int, ...] = tuple(3 * bit for bit in p0)

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
    """The shared :class:`CombinationalView` of a netlist's current state,
    built on the shared default engine (:func:`get_implication`)."""
    return get_compiled(netlist).extension(
        "combinational_view",
        lambda c: CombinationalView(c, get_implication(netlist)))
