"""PODEM test generation / redundancy proof for any registered fault model.

The generator works on the combinational (full-DFT) view of a netlist,
executed over the compiled integer-ID IR (:mod:`repro.netlist.compiled`).
Each search keeps one :class:`LiveMachine`: the good and faulty machines as
two dual-rail plane arrays indexed by net ID (bit 0 good, bit 1 faulty),
so one call of an op's generated plane function evaluates both.  The
fault-free machine is swept once per netlist state, into the shared
:class:`~repro.atpg.view.CombinationalView`; a search starts from a copy of
it with the fault injected as an event, and every decision, flip on
backtrack and pop only pushes an event too, so only the loads of nets whose
value changed are re-evaluated, in topological order — selective trace
(Ulrich 1969), the event-driven implication of FAN (Fujiwara and Shimono
1983).  The D-frontier is derived from a live set of D nets, and
the backtrace / X-path machinery walks the precomputed ID-indexed
connectivity tables instead of the object graph.  The view defines:

* controllable points — primary-input nets and sequential-cell output nets
  that circuit manipulation neither tied nor froze;
* observation points — observable output ports plus sequential-cell input
  nets whose capture path the constants do not block.

Single-pattern faults run the classic one-frame search.  Two-pattern
launch-on-capture faults (transition-delay) run a two-time-frame unrolled
search reusing the same five-valued algebra: the *capture* frame is the
one-frame search against the spec's stuck value, and the *launch* frame is
then justified — the excitation net must hold the initialization value, and
every flip-flop output the capture cube assigned must be the next-state the
launch frame produces (the launch-on-capture consistency constraint;
primary inputs are free to change between frames).  The launch frame is
searched on a fault-free live machine of its own.

A fault for which the decision space is exhausted without finding a test is
*structurally untestable* (class ``UU``); exceeding the backtrack limit gives
``AU`` (abandoned).  This mirrors the role TetraMax plays in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.atpg.view import get_view
from repro.faults.models import Fault, InjectionSpec, resolve_injection

if TYPE_CHECKING:
    from repro.analysis.prover import StaticAnalysis
from repro.netlist.cells import LOGIC_0, LOGIC_1, LOGIC_X
from repro.netlist.compiled import get_compiled
from repro.netlist.module import Netlist
from repro.simulation.simulator import plane_program


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


def _lane(p1: int, p0: int, bit: int) -> int:
    return LOGIC_1 if p1 & bit else (LOGIC_0 if p0 & bit else LOGIC_X)


# A net's two-lane plane pair as one code ``p1 | p0 << 2`` (lane bit 0 is the
# good machine, bit 1 the faulty one) -> good value, faulty value, and
# whether the net carries a fault effect (both definite and different).
_GOOD = tuple(_lane(code & 3, code >> 2, 1) for code in range(16))
_FAULTY = tuple(_lane(code & 3, code >> 2, 2) for code in range(16))
_IS_D = tuple(g != LOGIC_X and f != LOGIC_X and g != f
              for g, f in zip(_GOOD, _FAULTY))
#: Logic value -> plane pair holding it in both lanes.
_BOTH = {LOGIC_0: (0, 3), LOGIC_1: (3, 0), LOGIC_X: (0, 0)}


class LiveMachine:
    """The good and faulty machines of one search, kept live.

    Two plane arrays indexed by net ID hold both machines: bit 0 is the
    good machine, bit 1 the faulty one, so each op is one call of its
    generated plane function at mask ``0b11``.  :meth:`assign` changes a
    source (the value of a controllable point, or back to X) and
    :meth:`settle` re-evaluates only the loads of nets whose value changed,
    in op-index (topological) order.  Every net value is a pure function of
    the sources — ties, fixed state, assignments and the injected fault —
    so a settled machine equals a full sweep under the same sources and
    backtracking needs no undo trail.

    The same property lets construction skip the sweep: it copies the
    fault-free machine the view settled once per netlist state
    (:class:`~repro.atpg.view.CombinationalView`), injects the fault and
    the initial ``assignments`` as events and settles, so only their
    fanout is evaluated.

    The fault is injected as the search defines it: a stem fault forces
    bit 1 of its net (a tied net included), a branch fault replaces the
    faulty lane of one input pin of ``branch_op`` when that op is
    evaluated.  ``good`` / ``faulty`` are three-valued views of the lanes
    and ``d_nets`` is the live set of nets carrying a fault effect.
    """

    def __init__(self, podem: "Podem", stem: Optional[int], branch_op: int,
                 branch_pos: int, fault_value: int,
                 assignments: Iterable[Tuple[int, int]] = ()) -> None:
        compiled = podem.compiled
        self.podem = podem
        self._compiled = compiled
        self._program = plane_program(compiled)[0]
        self.stem = stem
        self.branch_op = branch_op
        self.branch_pos = branch_pos
        self.fault_value = fault_value
        # Bit-1 (faulty lane) planes of the stuck value.
        self._f1 = 2 if fault_value == LOGIC_1 else 0
        self._f0 = 2 if fault_value == LOGIC_0 else 0
        #: Controllable net -> assigned value, in decision order.
        self.assignments: Dict[int, int] = {}

        # Start from the view's settled fault-free machine and inject the
        # fault and the initial assignments as events, so the first settle
        # evaluates only their fanout.
        view = podem.view
        self.p1 = list(view.p1)
        self.p0 = list(view.p0)
        self.good = list(view.base)
        self.faulty = list(view.base)
        self.d_nets: Set[int] = set()
        self._heap: List[int] = []
        self._queued = bytearray(compiled.n_ops)
        if stem is not None:
            self._set(stem, (self.p1[stem] & 1) | self._f1,
                      (self.p0[stem] & 1) | self._f0)
        if branch_op >= 0:
            self._queued[branch_op] = 1
            self._heap.append(branch_op)
        for nid, value in assignments:
            self.assign(nid, value)
        self.settle()

    def _set(self, nid: int, p1: int, p0: int) -> None:
        """Store a net's new planes and queue its loads."""
        self.p1[nid] = p1
        self.p0[nid] = p0
        code = p1 | (p0 << 2)
        self.good[nid] = _GOOD[code]
        self.faulty[nid] = _FAULTY[code]
        if _IS_D[code]:
            self.d_nets.add(nid)
        else:
            self.d_nets.discard(nid)
        queued = self._queued
        for op, _ in self._compiled.net_load_ops[nid]:
            if not queued[op]:
                queued[op] = 1
                heappush(self._heap, op)

    def assign(self, nid: int, value: int) -> None:
        """Set a controllable net to ``value`` (``LOGIC_X`` clears it);
        takes effect at the next :meth:`settle`."""
        if value == LOGIC_X:
            self.assignments.pop(nid, None)
        else:
            self.assignments[nid] = value
        p1, p0 = _BOTH[value]
        if nid == self.stem:
            p1 = (p1 & 1) | self._f1
            p0 = (p0 & 1) | self._f0
        if p1 != self.p1[nid] or p0 != self.p0[nid]:
            self._set(nid, p1, p0)

    def settle(self) -> None:
        """Re-evaluate the queued ops in index order until nothing changes."""
        heap = self._heap
        queued = self._queued
        p1, p0 = self.p1, self.p0
        program = self._program
        op_fanin = self._compiled.op_fanin
        op_fanout = self._compiled.op_fanout
        tied = self._compiled.tied
        stem, branch_op = self.stem, self.branch_op
        f1, f0 = self._f1, self._f0
        while heap:
            op = heappop(heap)
            queued[op] = 0
            args = []
            for nid in op_fanin[op]:
                if nid >= 0:
                    args.append(p1[nid])
                    args.append(p0[nid])
                else:
                    args.append(0)
                    args.append(0)
            if op == branch_op:
                k = 2 * self.branch_pos
                args[k] = (args[k] & 1) | f1
                args[k + 1] = (args[k + 1] & 1) | f0
            out = program[op](3, *args)
            for pos, nid in enumerate(op_fanout[op]):
                if nid < 0 or tied[nid] is not None:
                    continue
                o1 = out[2 * pos]
                o0 = out[2 * pos + 1]
                if nid == stem:
                    o1 = (o1 & 1) | f1
                    o0 = (o0 & 1) | f0
                if o1 != p1[nid] or o0 != p0[nid]:
                    self._set(nid, o1, o0)

    def detected(self) -> bool:
        """Does a fault effect reach an observation point?"""
        return not self.d_nets.isdisjoint(self.podem.view.observation_ids)

    def d_frontier(self) -> List[int]:
        """Ops with a fault effect on an input and an output still X in
        either machine, in op-index order: the loads of the D nets, plus
        the branch op, whose faulted pin carries a fault effect whenever
        its good value opposes the stuck value."""
        compiled = self._compiled
        good, faulty, d_nets = self.good, self.faulty, self.d_nets
        candidates: Set[int] = set()
        for nid in d_nets:
            candidates.update(op for op, _ in compiled.net_load_ops[nid])
        if self.branch_op >= 0:
            candidates.add(self.branch_op)
        frontier: List[int] = []
        for op in sorted(candidates):
            if not any(nid >= 0 and (good[nid] == LOGIC_X
                                     or faulty[nid] == LOGIC_X)
                       for nid in compiled.op_fanout[op]):
                continue
            for pos, nid in enumerate(compiled.op_fanin[op]):
                if nid < 0:
                    continue
                if op == self.branch_op and pos == self.branch_pos:
                    effect = good[nid] not in (LOGIC_X, self.fault_value)
                else:
                    effect = nid in d_nets
                if effect:
                    frontier.append(op)
                    break
        return frontier


class Podem:
    """Single-fault PODEM ATPG on the combinational view of a netlist.

    The view is constant-aware: flip-flop outputs frozen by the circuit
    manipulation (directly tied, or held by a tied reset/enable — the
    view's constant fixpoint runs through the flip-flops) are treated
    as constants rather than controllable points, and flip-flop inputs whose
    capture path is blocked by such constants are not observation points.
    This keeps PODEM's verdicts consistent with the tied-value analysis the
    identification flow is built on.  The view
    (:class:`~repro.atpg.view.CombinationalView`) is built once per netlist
    state and shared by every engine over it.
    """

    def __init__(self, netlist: Netlist, backtrack_limit: int = 200,
                 static: Optional["StaticAnalysis"] = None) -> None:
        self.netlist = netlist
        self.backtrack_limit = backtrack_limit
        self.compiled = get_compiled(netlist)
        #: The combinational view searched: the netlist state's shared one.
        self.view = get_view(netlist)
        #: Optional static-analysis handle (repro.analysis): when present,
        #: the learned-implication closure vetoes provably futile decision
        #: branches and SCOAP controllability guides the backtrace.  ``None``
        #: keeps the plain search as the oracle path.
        self.static = static
        #: Decision branches skipped because the learned implications proved
        #: them futile (they would otherwise have cost backtracks).
        self.learned_skips = 0

    @property
    def order(self) -> list:
        """Topological order of the combinational instances (shared list)."""
        return self.compiled.instances

    # ------------------------------------------------------------------ #
    # PODEM machinery
    # ------------------------------------------------------------------ #
    def _x_path_exists(self, good: List[int], faulty: List[int],
                       frontier: List[int]) -> bool:
        """Is there a path of X-valued nets from the D-frontier to an
        observation point?"""
        if not frontier:
            return False
        compiled = self.compiled
        observation_ids = self.view.observation_ids
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
            if nid in observation_ids:
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
        controllable_ids = self.view.controllable_ids
        current = nid
        current_value = value
        limit = compiled.n_nets + compiled.n_ops + len(compiled.seq_instances) + 1
        for _ in range(limit):
            if current in controllable_ids:
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
        excite = self.view.excitation_id(fault)
        if excite is None:
            # A fault on an unconnected pin can never be excited or observed.
            return PodemResult(PodemStatus.UNTESTABLE, fault)
        tied = compiled.tied[excite]
        if tied is not None and tied == fault_value:
            return PodemResult(PodemStatus.UNTESTABLE, fault)

        stem, branch_op, branch_pos = self.view.fault_refs(fault)
        names = compiled.net_names

        # Static learning: the values every detecting pattern must justify.
        # A contradiction in the closure proves the excitation value is
        # unreachable, hence the exhaustive search would return UNTESTABLE.
        necessary: Optional[Dict[int, int]] = None
        if self.static is not None:
            necessary = self.static.necessary(excite, LOGIC_1 - fault_value)
            if necessary is None:
                return PodemResult(PodemStatus.UNTESTABLE, fault)

        machine = LiveMachine(self, stem, branch_op, branch_pos, fault_value)
        good, faulty = machine.good, machine.faulty
        # Decision stack entries: (net id, value, alternative_tried)
        stack: List[List] = []
        backtracks = 0
        decisions = 0

        while True:
            machine.settle()
            if machine.detected():
                pattern = {names[nid]: value
                           for nid, value in machine.assignments.items()}
                return PodemResult(PodemStatus.DETECTED, fault,
                                   pattern=pattern,
                                   backtracks=backtracks, decisions=decisions)

            frontier = machine.d_frontier()
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
                    machine.assign(nid, value)
                    stack.append([nid, value, skipped])
                    decisions += 1
                    continue

            # Backtrack.
            while stack:
                nid, value, tried = stack[-1]
                if not tried:
                    stack[-1][2] = True
                    machine.assign(nid, LOGIC_1 - value)
                    backtracks += 1
                    break
                stack.pop()
                machine.assign(nid, LOGIC_X)
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
        excite = self.view.excitation_id(fault)
        if excite is None:
            return PodemResult(PodemStatus.UNTESTABLE, fault)
        if (compiled.tied[excite] is not None
                or excite in self.view.fixed_ids):
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
            seq_index = self.view.state_driver.get(nid)
            if seq_index is not None:
                constraints[seq_index] = value
        return constraints

    def _seq_next_value(self, seq_index: int, machine: LiveMachine) -> int:
        """Next-state of one sequential cell under a launch-frame good
        machine (three-valued: its plane function on the good lane)."""
        compiled = self.compiled
        _, seq_program = plane_program(compiled)
        p1, p0 = machine.p1, machine.p0
        flat: List[int] = []
        for nid in compiled.seq_fanin[seq_index]:
            if nid >= 0:
                flat.append(p1[nid] & 1)
                flat.append(p0[nid] & 1)
            else:
                flat.append(0)
                flat.append(0)
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
        ``"aborted"`` (backtrack limit).  The search reuses PODEM's live
        machine (fault-free here), backtrace and decision stack — objectives
        are checked exactly (by simulation), the per-objective backtrace is
        only a search heuristic.
        """
        compiled = self.compiled
        names = compiled.net_names
        machine = LiveMachine(self, None, -1, -1, LOGIC_0)
        good = machine.good
        stack: List[List] = []
        backtracks = 0
        decisions = 0

        while True:
            machine.settle()
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
                    nxt = self._seq_next_value(seq_index, machine)
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
                           for nid, value in machine.assignments.items()}
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
                        machine.assign(nid, value)
                        stack.append([nid, value, False])
                        decisions += 1
                        continue

            # Backtrack.
            while stack:
                nid, value, tried = stack[-1]
                if not tried:
                    stack[-1][2] = True
                    machine.assign(nid, LOGIC_1 - value)
                    backtracks += 1
                    break
                stack.pop()
                machine.assign(nid, LOGIC_X)
            else:
                return {}, "exhausted", backtracks, decisions

            if backtracks > self.backtrack_limit:
                return {}, "aborted", backtracks, decisions
