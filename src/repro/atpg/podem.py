"""PODEM test generation / redundancy proof for any registered fault model.

The generator works on the combinational (full-DFT) view of a netlist,
executed over the compiled integer-ID IR (:mod:`repro.netlist.compiled`):
the five-valued machine is a pair of dense three-valued arrays (good /
faulty) indexed by net ID, evaluated op-by-op through the shared levelized
program, and the backtrace / D-frontier / X-path machinery walks the
precomputed ID-indexed connectivity tables instead of the object graph.

* controllable points — primary-input nets and sequential-cell output nets
  that are not tied by circuit manipulation;
* observation points — observable output ports plus sequential-cell input
  nets.

Single-pattern faults run the classic one-frame search.  Two-pattern
launch-on-capture faults (transition-delay) run a two-time-frame unrolled
search reusing the same five-valued algebra: the *capture* frame is the
one-frame search against the spec's stuck value, and the *launch* frame is
then justified — the excitation net must hold the initialization value, and
every flip-flop output the capture cube assigned must be the next-state the
launch frame produces (the launch-on-capture consistency constraint;
primary inputs are free to change between frames).

A fault for which the decision space is exhausted without finding a test is
*structurally untestable* (class ``UU``); exceeding the backtrack limit gives
``AU`` (abandoned).  This mirrors the role TetraMax plays in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.faults.models import Fault, InjectionSpec, resolve_injection

if TYPE_CHECKING:
    from repro.analysis.prover import StaticAnalysis
    from repro.atpg.implication import ImplicationEngine
from repro.netlist.cells import LOGIC_0, LOGIC_1, LOGIC_X, PLANE_ENCODING
from repro.netlist.compiled import NO_NET, get_compiled
from repro.netlist.module import Netlist
from repro.simulation.simulator import plane_program, scalar3_program


class PodemStatus(Enum):
    DETECTED = "detected"
    UNTESTABLE = "untestable"
    ABORTED = "aborted"


@dataclass
class PodemResult:
    status: PodemStatus
    fault: Fault
    pattern: Dict[str, int] = field(default_factory=dict)
    #: Launch-frame assignments of a two-time-frame test (empty for
    #: single-pattern models): apply ``init_pattern``, clock once, then
    #: apply ``pattern``.
    init_pattern: Dict[str, int] = field(default_factory=dict)
    backtracks: int = 0
    decisions: int = 0


class Podem:
    """Single-fault PODEM ATPG on the combinational view of a netlist.

    The view is constant-aware: flip-flop outputs frozen by the circuit
    manipulation (directly tied, or held by a tied reset/enable — see
    :func:`repro.atpg.implication.sequential_implied_constants`) are treated
    as constants rather than controllable points, and flip-flop inputs whose
    capture path is blocked by such constants are not observation points.
    This keeps PODEM's verdicts consistent with the tied-value analysis the
    identification flow is built on.
    """

    def __init__(self, netlist: Netlist, backtrack_limit: int = 200,
                 implication: Optional["ImplicationEngine"] = None,
                 static: Optional["StaticAnalysis"] = None) -> None:
        from repro.atpg.implication import ImplicationEngine

        self.netlist = netlist
        self.backtrack_limit = backtrack_limit
        self.compiled = get_compiled(netlist)
        self.implication = implication or ImplicationEngine(netlist)
        #: Optional static-analysis handle (repro.analysis): when present,
        #: the learned-implication closure vetoes provably futile decision
        #: branches and SCOAP controllability guides the backtrace.  ``None``
        #: keeps the plain search as the oracle path.
        self.static = static
        #: Decision branches skipped because the learned implications proved
        #: them futile (they would otherwise have cost backtracks).
        self.learned_skips = 0

        compiled = self.compiled
        names = compiled.net_names
        tied = compiled.tied

        # Flip-flop output nets frozen to a mission constant.
        self.fixed_state: Dict[str, int] = {}
        self._fixed_ids: Dict[int, int] = {}
        for fanout in compiled.seq_fanout:
            for nid in fanout:
                if nid < 0 or tied[nid] is not None:
                    continue
                constant = self.implication.constant_of(names[nid])
                if constant is not None:
                    self.fixed_state[names[nid]] = constant
                    self._fixed_ids[nid] = constant

        self.controllable: Set[str] = set()
        self._controllable_ids: Set[int] = set()
        for nid in compiled.input_port_ids:
            if tied[nid] is None:
                self._controllable_ids.add(nid)
        for fanout in compiled.seq_fanout:
            for nid in fanout:
                if (nid >= 0 and tied[nid] is None
                        and nid not in self._fixed_ids):
                    self._controllable_ids.add(nid)
        self.controllable = {names[nid] for nid in self._controllable_ids}

        self._observation_ids: Set[int] = set(compiled.observable_output_ids)
        for i, fanin in enumerate(compiled.seq_fanin):
            inst = compiled.seq_instances[i]
            for pos, nid in enumerate(fanin):
                if nid < 0:
                    continue
                port = compiled.seq_cell[i].inputs[pos]
                if self.implication.propagation_blocked(inst, port):
                    continue
                self._observation_ids.add(nid)
        self.observation: Set[str] = {names[nid] for nid in self._observation_ids}

        # State-output net -> driving sequential instance index (used by the
        # two-time-frame launch justification).
        self._state_driver: Dict[int, int] = {}
        for i, fanout in enumerate(compiled.seq_fanout):
            for nid in fanout:
                if nid >= 0:
                    self._state_driver[nid] = i

    @property
    def order(self) -> list:
        """Topological order of the combinational instances (shared list)."""
        return self.compiled.instances

    # ------------------------------------------------------------------ #
    # fault-site resolution
    # ------------------------------------------------------------------ #
    def _fault_refs(self, fault: Fault) -> Tuple[Optional[int], int, int]:
        """Resolve ``(stem net id, branch op, branch pin pos)`` for a fault.

        A *stem* fault (module port or instance output pin) forces the whole
        net in the faulty machine; a *branch* fault perturbs one input pin
        of a combinational op.  Either field may be absent.
        """
        compiled = self.compiled
        if fault.is_port_fault:
            nid = compiled.id_of(fault.site)
            return nid, -1, -1
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

    def _fault_excitation_id(self, fault: Fault) -> Optional[int]:
        """Net whose good value must be the opposite of the stuck value."""
        compiled = self.compiled
        if fault.is_port_fault:
            return compiled.id_of(fault.site)
        kind, index, pos, is_input = compiled.pin_ref(fault.site)
        nid = compiled.pin_net_id(kind, index, pos, is_input)
        return nid if nid != NO_NET else None

    # ------------------------------------------------------------------ #
    # five-valued simulation with fault injection (good/faulty ID arrays)
    # ------------------------------------------------------------------ #
    def _simulate(self, assignments: Dict[int, int], stem: Optional[int],
                  branch_op: int, branch_pos: int, fault_value: int
                  ) -> Tuple[List[int], List[int]]:
        compiled = self.compiled
        n = compiled.n_nets
        good = [LOGIC_X] * n
        faulty = [LOGIC_X] * n
        for nid, t in enumerate(compiled.tied):
            if t is not None:
                good[nid] = t
                faulty[nid] = t
        for nid, value in self._fixed_ids.items():
            good[nid] = value
            faulty[nid] = value
        for nid, value in assignments.items():
            good[nid] = value
            faulty[nid] = value
        if stem is not None:
            faulty[stem] = fault_value

        program = scalar3_program(compiled)
        op_fanin = compiled.op_fanin
        op_fanout = compiled.op_fanout
        tied = compiled.tied
        for i, fn in enumerate(program):
            good_args = []
            faulty_args = []
            for pos, nid in enumerate(op_fanin[i]):
                if nid < 0:
                    good_args.append(LOGIC_X)
                    faulty_args.append(LOGIC_X)
                    continue
                good_args.append(good[nid])
                faulty_args.append(fault_value
                                   if (i == branch_op and pos == branch_pos)
                                   else faulty[nid])
            good_out = fn(*good_args)
            faulty_out = fn(*faulty_args)
            for pos, nid in enumerate(op_fanout[i]):
                if nid < 0 or tied[nid] is not None:
                    continue
                good[nid] = good_out[pos]
                faulty[nid] = (fault_value if nid == stem else faulty_out[pos])
        return good, faulty

    # ------------------------------------------------------------------ #
    # PODEM machinery
    # ------------------------------------------------------------------ #
    def _detected(self, good: List[int], faulty: List[int]) -> bool:
        for nid in self._observation_ids:
            g, f = good[nid], faulty[nid]
            if g != LOGIC_X and f != LOGIC_X and g != f:
                return True
        return False

    def _d_frontier(self, good: List[int], faulty: List[int],
                    branch_op: int, branch_pos: int,
                    fault_value: int) -> List[int]:
        compiled = self.compiled
        frontier: List[int] = []
        for i in range(compiled.n_ops):
            out_ok = False
            for nid in compiled.op_fanout[i]:
                if nid < 0:
                    continue
                if good[nid] == LOGIC_X or faulty[nid] == LOGIC_X:
                    out_ok = True  # output still undetermined in five values
            if not out_ok:
                continue
            for pos, nid in enumerate(compiled.op_fanin[i]):
                if nid < 0:
                    continue
                g = good[nid]
                f = (fault_value if (i == branch_op and pos == branch_pos)
                     else faulty[nid])
                if g != LOGIC_X and f != LOGIC_X and g != f:
                    frontier.append(i)
                    break
        return frontier

    def _x_path_exists(self, good: List[int], faulty: List[int],
                       frontier: List[int]) -> bool:
        """Is there a path of X-valued nets from the D-frontier to an
        observation point?"""
        if not frontier:
            return False
        compiled = self.compiled
        work: List[int] = []
        seen: Set[int] = set()
        for op in frontier:
            work.extend(nid for nid in compiled.op_fanout[op] if nid >= 0)
        while work:
            nid = work.pop()
            if nid in seen:
                continue
            seen.add(nid)
            g, f = good[nid], faulty[nid]
            definite = g != LOGIC_X and f != LOGIC_X
            if definite and g == f:
                continue
            if nid in self._observation_ids:
                return True
            work.extend(compiled.net_succ[nid])
        return False

    def _objective(self, fault_value: int, excite: int,
                   good: List[int], frontier: List[int]
                   ) -> Optional[Tuple[int, int]]:
        """Return (net id, value) to pursue next, or None at a dead end."""
        compiled = self.compiled
        g = good[excite]
        wanted = LOGIC_1 - fault_value
        if g == LOGIC_X:
            return (excite, wanted)
        if g == fault_value:
            return None  # cannot excite under current assignments
        # Fault excited: advance the D-frontier.
        for op in frontier:
            controlling, _ = compiled.op_cell[op].control or (None, False)
            non_controlling = (LOGIC_1 - controlling
                               if controlling is not None else LOGIC_1)
            for nid in compiled.op_fanin[op]:
                if nid >= 0 and good[nid] == LOGIC_X:
                    return (nid, non_controlling)
        return None

    def _backtrace(self, nid: int, value: int,
                   good: List[int]) -> Optional[Tuple[int, int]]:
        """Walk backwards from an objective to an unassigned controllable net."""
        compiled = self.compiled
        current = nid
        current_value = value
        limit = compiled.n_nets + compiled.n_ops + len(compiled.seq_instances) + 1
        for _ in range(limit):
            if current in self._controllable_ids:
                # Assignable as long as the good machine has not fixed it yet
                # (the faulty component may already be pinned at a fault site).
                if good[current] == LOGIC_X:
                    return (current, current_value)
                return None
            op = compiled.net_driver_op[current]
            if op < 0:
                return None  # undriven, or driven by a sequential cell
            controlling, inversion = (compiled.op_cell[op].control
                                      or (None, False))
            target = (LOGIC_1 - current_value) if inversion else current_value

            chosen = -1
            if self.static is not None:
                # SCOAP guidance: pursue the cheapest-to-justify fanin.
                best_cost: Optional[int] = None
                for fanin_nid in compiled.op_fanin[op]:
                    if fanin_nid >= 0 and good[fanin_nid] == LOGIC_X:
                        cost = self.static.scoap.cc(fanin_nid, target)
                        if best_cost is None or cost < best_cost:
                            chosen = fanin_nid
                            best_cost = cost
            else:
                for fanin_nid in compiled.op_fanin[op]:
                    if fanin_nid >= 0 and good[fanin_nid] == LOGIC_X:
                        chosen = fanin_nid
                        break
            if chosen < 0:
                return None
            current = chosen
            current_value = target
        return None

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def generate(self, fault: Fault) -> PodemResult:
        """Attempt to generate a test for ``fault`` (any registered model)."""
        spec = resolve_injection(fault)
        if spec.frames > 1:
            return self._generate_two_frame(fault, spec)
        return self._generate_single(fault, spec.stuck_value)

    def _generate_single(self, fault: Fault, fault_value: int) -> PodemResult:
        """The classic one-frame search against a stuck value."""
        compiled = self.compiled
        excite = self._fault_excitation_id(fault)
        if excite is None:
            # A fault on an unconnected pin can never be excited or observed.
            return PodemResult(PodemStatus.UNTESTABLE, fault)
        tied = compiled.tied[excite]
        if tied is not None and tied == fault_value:
            return PodemResult(PodemStatus.UNTESTABLE, fault)

        stem, branch_op, branch_pos = self._fault_refs(fault)
        names = compiled.net_names

        # Static learning: the values every detecting pattern must justify.
        # A contradiction in the closure proves the excitation value is
        # unreachable, hence the exhaustive search would return UNTESTABLE.
        necessary: Optional[Dict[int, int]] = None
        if self.static is not None:
            necessary = self.static.necessary(excite, LOGIC_1 - fault_value)
            if necessary is None:
                return PodemResult(PodemStatus.UNTESTABLE, fault)

        assignments: Dict[int, int] = {}
        # Decision stack entries: (net id, value, alternative_tried)
        stack: List[List] = []
        backtracks = 0
        decisions = 0

        while True:
            good, faulty = self._simulate(assignments, stem,
                                          branch_op, branch_pos, fault_value)
            if self._detected(good, faulty):
                pattern = {names[nid]: value
                           for nid, value in assignments.items()}
                return PodemResult(PodemStatus.DETECTED, fault,
                                   pattern=pattern,
                                   backtracks=backtracks, decisions=decisions)

            frontier = self._d_frontier(good, faulty, branch_op, branch_pos,
                                        fault_value)
            excited = good[excite] == LOGIC_1 - fault_value
            dead_end = False
            objective = None

            if excited and not frontier:
                # The fault is excited but its effect can no longer advance
                # (every gate it reaches already has a definite output).
                dead_end = True
            elif excited and frontier and not self._x_path_exists(good, faulty,
                                                                  frontier):
                dead_end = True
            else:
                objective = self._objective(fault_value, excite, good,
                                            frontier)
                if objective is None:
                    dead_end = True

            if not dead_end:
                assert objective is not None
                pi = self._backtrace(objective[0], objective[1], good)
                if pi is None:
                    dead_end = True
                else:
                    nid, value = pi
                    skipped = False
                    if necessary is not None:
                        required = necessary.get(nid)
                        if required is not None and required != value:
                            # The suggested branch contradicts a necessary
                            # assignment: take the other branch directly and
                            # mark it tried (the skipped branch is covered
                            # by the static proof, not by search).
                            value = required
                            skipped = True
                            self.learned_skips += 1
                    assignments[nid] = value
                    stack.append([nid, value, skipped])
                    decisions += 1
                    continue

            # Backtrack.
            while stack:
                nid, value, tried = stack[-1]
                if not tried:
                    stack[-1][2] = True
                    assignments[nid] = LOGIC_1 - value
                    backtracks += 1
                    break
                stack.pop()
                assignments.pop(nid, None)
            else:
                return PodemResult(PodemStatus.UNTESTABLE, fault,
                                   backtracks=backtracks, decisions=decisions)

            if backtracks > self.backtrack_limit:
                return PodemResult(PodemStatus.ABORTED, fault,
                                   backtracks=backtracks, decisions=decisions)

    # ------------------------------------------------------------------ #
    # two-time-frame search (launch-on-capture models)
    # ------------------------------------------------------------------ #
    def _generate_two_frame(self, fault: Fault,
                            spec: InjectionSpec) -> PodemResult:
        """Unrolled two-frame search for a launch-on-capture fault.

        Frame 2 (capture) is the one-frame search against the spec's stuck
        value.  Frame 1 (launch) is then justified: the excitation net must
        hold the initialization value, and every flip-flop output the
        capture cube assigned must equal the next-state the launch frame
        produces.  Exhausting the launch search proves untestability only
        when the capture cube imposed no state constraints (the launch
        objective is then capture-independent); otherwise a different
        capture cube might still admit a launch, so the fault is abandoned
        (AU) rather than declared redundant.
        """
        compiled = self.compiled
        excite = self._fault_excitation_id(fault)
        if excite is None:
            return PodemResult(PodemStatus.UNTESTABLE, fault)
        if compiled.tied[excite] is not None or excite in self._fixed_ids:
            # The site is held at a mission constant: it never transitions,
            # so neither polarity can ever be launched.
            return PodemResult(PodemStatus.UNTESTABLE, fault)

        capture = self._generate_single(fault, spec.stuck_value)
        if capture.status is not PodemStatus.DETECTED:
            return capture

        state_objs = self._launch_state_constraints(capture.pattern)
        launch, status, backtracks, decisions = self._justify_launch(
            {excite: spec.init_value}, state_objs)
        backtracks += capture.backtracks
        decisions += capture.decisions
        if status == "found":
            return PodemResult(PodemStatus.DETECTED, fault,
                               pattern=capture.pattern, init_pattern=launch,
                               backtracks=backtracks, decisions=decisions)
        if status == "exhausted" and not state_objs:
            # No input can establish the initialization value at all — the
            # net is functionally constant, independent of the capture cube.
            return PodemResult(PodemStatus.UNTESTABLE, fault,
                               backtracks=backtracks, decisions=decisions)
        return PodemResult(PodemStatus.ABORTED, fault,
                           backtracks=backtracks, decisions=decisions)

    def _launch_state_constraints(self,
                                  capture_pattern: Dict[str, int]
                                  ) -> Dict[int, int]:
        """Sequential indices constrained by the capture cube's state
        assignments, mapped to the next-state value the launch frame must
        produce.  Primary-input assignments impose nothing (inputs are free
        to change between the two frames)."""
        compiled = self.compiled
        constraints: Dict[int, int] = {}
        for name, value in capture_pattern.items():
            nid = compiled.id_of(name)
            if nid is None:
                continue
            seq_index = self._state_driver.get(nid)
            if seq_index is not None:
                constraints[seq_index] = value
        return constraints

    def _seq_next_value(self, seq_index: int, good: List[int]) -> int:
        """Next-state of one sequential cell under a launch-frame good
        machine (three-valued, via the shared plane program)."""
        compiled = self.compiled
        _, seq_program = plane_program(compiled)
        flat: List[int] = []
        for nid in compiled.seq_fanin[seq_index]:
            d = PLANE_ENCODING[good[nid] if nid >= 0 else LOGIC_X]
            flat.append(d[0])
            flat.append(d[1])
        out = seq_program[seq_index](1, *flat)
        return LOGIC_1 if out[0] else (LOGIC_0 if out[1] else LOGIC_X)

    def _seq_objective(self, seq_index: int, want: int,
                       good: List[int]) -> Optional[Tuple[int, int]]:
        """An unassigned net to pursue so a flip-flop's next state moves
        towards ``want`` — the data-role pin first (the launch-on-capture
        functional path), then any undetermined input."""
        compiled = self.compiled
        cell = compiled.seq_cell[seq_index]
        data_pin = cell.role_pin("data")
        fanin = compiled.seq_fanin[seq_index]
        for pos, nid in enumerate(fanin):
            if nid >= 0 and cell.inputs[pos] == data_pin \
                    and good[nid] == LOGIC_X:
                return (nid, want)
        for nid in fanin:
            if nid >= 0 and good[nid] == LOGIC_X:
                return (nid, want)
        return None

    def _justify_launch(self, net_objs: Dict[int, int],
                        state_objs: Dict[int, int]):
        """Find launch-frame assignments meeting net and next-state
        objectives.

        Returns ``(pattern, status, backtracks, decisions)`` with status
        ``"found"``, ``"exhausted"`` (decision space empty) or
        ``"aborted"`` (backtrack limit).  The search reuses PODEM's
        good-machine five-valued simulation, backtrace and decision stack —
        objectives are checked exactly (by simulation), the per-objective
        backtrace is only a search heuristic.
        """
        compiled = self.compiled
        names = compiled.net_names
        assignments: Dict[int, int] = {}
        stack: List[List] = []
        backtracks = 0
        decisions = 0

        while True:
            good, _ = self._simulate(assignments, None, -1, -1, 0)
            conflict = False
            pending: Optional[Tuple[int, int]] = None
            satisfied = True

            for nid, want in net_objs.items():
                g = good[nid]
                if g == LOGIC_X:
                    satisfied = False
                    if pending is None:
                        pending = (nid, want)
                elif g != want:
                    conflict = True
                    break
            if not conflict:
                for seq_index, want in state_objs.items():
                    nxt = self._seq_next_value(seq_index, good)
                    if nxt == LOGIC_X:
                        satisfied = False
                        if pending is None:
                            pending = self._seq_objective(seq_index, want,
                                                          good)
                            if pending is None:
                                conflict = True
                                break
                    elif nxt != want:
                        conflict = True
                        break

            if not conflict and satisfied:
                pattern = {names[nid]: value
                           for nid, value in assignments.items()}
                return pattern, "found", backtracks, decisions

            if not conflict:
                if pending is None:
                    conflict = True
                else:
                    pi = self._backtrace(pending[0], pending[1], good)
                    if pi is None:
                        conflict = True
                    else:
                        nid, value = pi
                        assignments[nid] = value
                        stack.append([nid, value, False])
                        decisions += 1
                        continue

            # Backtrack.
            while stack:
                nid, value, tried = stack[-1]
                if not tried:
                    stack[-1][2] = True
                    assignments[nid] = LOGIC_1 - value
                    backtracks += 1
                    break
                stack.pop()
                assignments.pop(nid, None)
            else:
                return {}, "exhausted", backtracks, decisions

            if backtracks > self.backtrack_limit:
                return {}, "aborted", backtracks, decisions
