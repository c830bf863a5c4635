"""Five-valued D-algorithm over the compiled IR (the hard-proof tier).

PODEM only decides primary inputs, which keeps every step cheap but makes
deep reconvergent justification expensive: the search rediscovers internal
implications one input cube at a time and gives up (AU) at the backtrack
limit.  The D-algorithm decides *internal* nets instead, with the classic
bookkeeping:

J-frontier
    Nets carrying a required good-machine value whose driving op still
    computes X — the justification obligations.  A choice point enumerates
    every input combination of the driver that produces the required value.

D-frontier
    Ops with a fault effect (good ≠ faulty, both definite) on an input and
    an undetermined output — the propagation candidates.  A choice point
    enumerates the good-machine values of the gate's undetermined inputs
    (the all-non-controlling cube first, the classic D-drive heuristic,
    then the remaining combinations so reconvergent multi-path
    sensitization is never missed).

Because every choice point enumerates *all* consistent alternatives and a
conflict only prunes branches no completion could satisfy, exhausting the
decision space is a structural untestability proof: :class:`DAlg` returns
``UNTESTABLE`` exactly when no test exists under the engine's
combinational view.  That is what lets the ``dalg`` portfolio backend
(:mod:`repro.atpg.portfolio`) escalate faults PODEM aborted and turn AU
into proven UU — or DT, in which case the extracted primary-input cube is
re-verified by five-valued simulation before the verdict is returned.

The machine model (controllable points, observation points, constant-aware
view, launch justification for two-pattern faults) is inherited from
:class:`~repro.atpg.podem.Podem`, so verdicts from both engines are directly
comparable; an extracted cube is re-verified on PODEM's
:class:`~repro.atpg.podem.LiveMachine`.  The D-algorithm's own
requirement-driven pass (:meth:`DAlg._propagate`) still rebuilds both
machines per decision, and the detection test and D-frontier scan its
arrays.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set, Tuple

from repro.atpg.podem import LiveMachine, Podem, PodemResult, PodemStatus
from repro.faults.models import Fault
from repro.netlist.cells import LOGIC_0, LOGIC_1, LOGIC_X
from repro.netlist.module import Netlist
from repro.simulation.simulator import scalar3_program

#: A choice point: [alternatives, next alternative index, forced keys added
#: by the currently-applied alternative].
_Choice = List


class DAlg(Podem):
    """Single-fault D-algorithm on the combinational view of a netlist.

    Drop-in alternative to :class:`Podem` (same constructor, same
    :meth:`generate` contract, same :class:`PodemResult`), intended as the
    escalation tier of the ATPG portfolio: slower per decision, but its
    exhaustion verdicts are complete redundancy proofs.
    """

    def __init__(self, netlist: Netlist, backtrack_limit: int = 200,
                 implication=None, static=None) -> None:
        super().__init__(netlist, backtrack_limit, implication, static)
        self._scalar_program = scalar3_program(self.compiled)
        self._sorted_controllables = sorted(self.view.controllable_ids)

    # ------------------------------------------------------------------ #
    # fault cone (forced internal values constrain the good machine only;
    # inside the cone the faulty value is left to forward propagation)
    # ------------------------------------------------------------------ #
    def _fault_cone(self, stem: Optional[int], branch_op: int) -> Set[int]:
        compiled = self.compiled
        work: List[int] = []
        if stem is not None:
            work.append(stem)
        if branch_op >= 0:
            work.extend(nid for nid in compiled.op_fanout[branch_op]
                        if nid >= 0)
        cone: Set[int] = set()
        while work:
            nid = work.pop()
            if nid in cone:
                continue
            cone.add(nid)
            work.extend(compiled.net_succ[nid])
        return cone

    # ------------------------------------------------------------------ #
    # forward propagation of a partial assignment with requirements
    # ------------------------------------------------------------------ #
    def _propagate(self, forced: Dict[int, int], stem: Optional[int],
                   branch_op: int, branch_pos: int, fault_value: int,
                   cone: Set[int]
                   ) -> Optional[Tuple[List[int], List[int], List[int]]]:
        """Levelized five-valued pass under ``forced`` good requirements.

        Returns ``(good, faulty, j_frontier)`` or ``None`` on a conflict (a
        driver computes a definite value contradicting a requirement, or a
        requirement contradicts a tied/fixed constant).  A conflict only
        prunes assignments no completion could satisfy — definite values of
        the three-valued algebra are monotone under information refinement
        — which is what keeps exhaustion a proof.
        """
        compiled = self.compiled
        n = compiled.n_nets
        good = [LOGIC_X] * n
        faulty = [LOGIC_X] * n
        for nid, t in enumerate(compiled.tied):
            if t is not None:
                good[nid] = t
                faulty[nid] = t
        for nid, value in self.view.fixed_ids.items():
            good[nid] = value
            faulty[nid] = value
        for nid, value in forced.items():
            current = good[nid]
            if current != LOGIC_X and current != value:
                return None
            good[nid] = value
            if nid not in cone:
                # Outside the fault cone both machines agree by definition.
                faulty[nid] = value
        if stem is not None:
            faulty[stem] = fault_value

        op_fanin = compiled.op_fanin
        op_fanout = compiled.op_fanout
        tied = compiled.tied
        j_frontier: List[int] = []
        for i, fn in enumerate(self._scalar_program):
            good_args = []
            faulty_args = []
            for pos, fid in enumerate(op_fanin[i]):
                if fid < 0:
                    good_args.append(LOGIC_X)
                    faulty_args.append(LOGIC_X)
                    continue
                good_args.append(good[fid])
                faulty_args.append(fault_value
                                   if (i == branch_op and pos == branch_pos)
                                   else faulty[fid])
            good_out = fn(*good_args)
            faulty_out = fn(*faulty_args)
            for pos, fid in enumerate(op_fanout[i]):
                if fid < 0 or tied[fid] is not None:
                    continue
                gv = good_out[pos]
                fv = fault_value if fid == stem else faulty_out[pos]
                required = forced.get(fid)
                if required is None:
                    good[fid] = gv
                    faulty[fid] = fv
                    continue
                if gv != LOGIC_X and gv != required:
                    return None
                if gv == LOGIC_X:
                    j_frontier.append(fid)
                if fid in cone:
                    faulty[fid] = fv
        return good, faulty, j_frontier

    def _detected(self, good: List[int], faulty: List[int]) -> bool:
        for nid in self.view.observation_ids:
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

    # ------------------------------------------------------------------ #
    # choice-point alternatives
    # ------------------------------------------------------------------ #
    def _justify_alternatives(self, nid: int, want: int,
                              good: List[int]) -> List[Dict[int, int]]:
        """Every input combination making ``nid``'s driver output ``want``.

        Enumerates the undetermined (good-X) inputs of the driving op over
        {0, 1} — controlling value of the gate family first — and keeps the
        combinations whose exact three-valued evaluation yields ``want`` on
        the driven output position.  Complete by construction: a detecting
        completion assigns those inputs *some* definite values, and that
        combination is in the list.
        """
        compiled = self.compiled
        op = compiled.net_driver_op[nid]
        if op < 0:
            return []
        out_pos = -1
        for pos, out in enumerate(compiled.op_fanout[op]):
            if out == nid:
                out_pos = pos
                break
        if out_pos < 0:
            return []
        fanin = compiled.op_fanin[op]
        x_nids = sorted({fid for fid in fanin
                         if fid >= 0 and good[fid] == LOGIC_X})
        if not x_nids:
            return []
        controlling, _ = compiled.op_cell[op].control or (None, False)
        order = ((controlling, LOGIC_1 - controlling)
                 if controlling is not None else (LOGIC_0, LOGIC_1))
        fn = self._scalar_program[op]
        alternatives: List[Dict[int, int]] = []
        for combo in itertools.product(order, repeat=len(x_nids)):
            candidate = dict(zip(x_nids, combo))
            args = []
            for fid in fanin:
                if fid < 0:
                    args.append(LOGIC_X)
                else:
                    value = candidate.get(fid)
                    args.append(good[fid] if value is None else value)
            if fn(*args)[out_pos] == want:
                alternatives.append(candidate)
        return alternatives

    def _drive_alternatives(self, op: int,
                            good: List[int]) -> List[Dict[int, int]]:
        """Good-value combinations of a D-frontier gate's undetermined
        inputs, all-non-controlling first (the classic D-drive cube), then
        every other combination so reconvergent sensitization — a side
        input that itself must carry a fault effect — stays reachable."""
        compiled = self.compiled
        x_nids = sorted({fid for fid in compiled.op_fanin[op]
                         if fid >= 0 and good[fid] == LOGIC_X})
        if not x_nids:
            return []
        controlling, _ = compiled.op_cell[op].control or (None, False)
        first = (LOGIC_1 - controlling) if controlling is not None else LOGIC_1
        order = (first, LOGIC_1 - first)
        return [dict(zip(x_nids, combo))
                for combo in itertools.product(order, repeat=len(x_nids))]

    @staticmethod
    def _apply_choice(choice: _Choice, forced: Dict[int, int]) -> bool:
        """Apply the next untried alternative of a choice point, skipping
        alternatives that contradict the current requirements."""
        alternatives, _, _ = choice
        while choice[1] < len(alternatives):
            alternative = alternatives[choice[1]]
            choice[1] += 1
            added: List[int] = []
            consistent = True
            for nid in sorted(alternative):
                value = alternative[nid]
                current = forced.get(nid)
                if current is not None:
                    if current != value:
                        consistent = False
                        break
                    continue
                forced[nid] = value
                added.append(nid)
            if consistent:
                choice[2] = added
                return True
            for nid in added:
                del forced[nid]
        return False

    # ------------------------------------------------------------------ #
    # the search (replaces Podem's input-cube enumeration)
    # ------------------------------------------------------------------ #
    def _generate_single(self, fault: Fault, fault_value: int) -> PodemResult:
        compiled = self.compiled
        excite = self.view.excitation_id(fault)
        if excite is None:
            return PodemResult(PodemStatus.UNTESTABLE, fault)
        tied = compiled.tied[excite]
        if tied is not None and tied == fault_value:
            return PodemResult(PodemStatus.UNTESTABLE, fault)
        if self.static is not None:
            if self.static.necessary(excite, LOGIC_1 - fault_value) is None:
                return PodemResult(PodemStatus.UNTESTABLE, fault)

        stem, branch_op, branch_pos = self.view.fault_refs(fault)
        cone = self._fault_cone(stem, branch_op)
        names = compiled.net_names

        forced: Dict[int, int] = {}
        if tied is None:
            fixed = self.view.fixed_ids.get(excite)
            if fixed is not None:
                if fixed == fault_value:
                    return PodemResult(PodemStatus.UNTESTABLE, fault)
            else:
                forced[excite] = LOGIC_1 - fault_value

        stack: List[_Choice] = []
        backtracks = 0
        decisions = 0

        while True:
            state = self._propagate(forced, stem, branch_op, branch_pos,
                                    fault_value, cone)
            alternatives: List[Dict[int, int]] = []
            failed = state is None
            if not failed:
                good, faulty, j_frontier = state
                detected = self._detected(good, faulty)
                if detected and not j_frontier:
                    pattern_ids = {nid: value
                                   for nid, value in forced.items()
                                   if nid in self.view.controllable_ids}
                    replay = LiveMachine(self, stem, branch_op, branch_pos,
                                         fault_value, pattern_ids.items())
                    if replay.detected():
                        pattern = {names[nid]: value for nid, value
                                   in sorted(pattern_ids.items())}
                        return PodemResult(PodemStatus.DETECTED, fault,
                                           pattern=pattern,
                                           backtracks=backtracks,
                                           decisions=decisions)
                    # The extracted cube did not verify: treat the branch
                    # as failed rather than ever returning an unverified DT.
                    failed = True
                elif detected:
                    alternatives = self._justify_alternatives(
                        j_frontier[0], forced[j_frontier[0]], good)
                else:
                    frontier = self._d_frontier(good, faulty, branch_op,
                                                branch_pos, fault_value)
                    if not frontier or not self._x_path_exists(good, faulty,
                                                               frontier):
                        failed = True
                    else:
                        for op in frontier:
                            alternatives = self._drive_alternatives(op, good)
                            if alternatives:
                                break
                        if not alternatives and j_frontier:
                            alternatives = self._justify_alternatives(
                                j_frontier[0], forced[j_frontier[0]], good)
                        if not alternatives:
                            # Structured moves exhausted: branch on the
                            # first free primary input (trivially complete).
                            for nid in self._sorted_controllables:
                                if good[nid] == LOGIC_X:
                                    alternatives = [{nid: LOGIC_1},
                                                    {nid: LOGIC_0}]
                                    break

            if not failed and alternatives:
                choice: _Choice = [alternatives, 0, []]
                if self._apply_choice(choice, forced):
                    stack.append(choice)
                    decisions += 1
                    continue
                failed = True

            # Backtrack: unwind to the deepest choice point with an
            # untried alternative.
            while stack:
                choice = stack[-1]
                for nid in choice[2]:
                    forced.pop(nid, None)
                choice[2] = []
                if self._apply_choice(choice, forced):
                    backtracks += 1
                    decisions += 1
                    break
                stack.pop()
            else:
                return PodemResult(PodemStatus.UNTESTABLE, fault,
                                   backtracks=backtracks,
                                   decisions=decisions)

            if backtracks > self.backtrack_limit:
                return PodemResult(PodemStatus.ABORTED, fault,
                                   backtracks=backtracks,
                                   decisions=decisions)
