"""Static untestability proofs combining SCOAP, learning and dominators.

:class:`StaticAnalysis` is the one handle the rest of the stack sees.  It is
built once per compiled netlist (cached through the compiled netlist's
extension slot, i.e. keyed on the netlist signature like ``get_compiled``)
and reads PODEM's own combinational view
(:class:`~repro.atpg.view.CombinationalView`) — the same frozen flip-flop
outputs, controllable points, observation points and constant fixpoint — so
that every :class:`StaticProof` it emits is a statement about the very
search space PODEM would explore:

* ``unconnected`` / ``tied-excitation`` / ``constant-site`` — the site can
  never be excited (PODEM's own early-out conditions);
* ``uncontrollable-excitation`` — the excitation value is unreachable from
  the controllable points (SCOAP controllability INF);
* ``implication-conflict`` — the necessary assignments of the excitation
  contradict each other (learned-implication closure);
* ``unobservable`` — no structural path from the site to any observation
  point;
* ``dominator-constant`` — every path to an observation point crosses a net
  that holds the same definite value in the good and the faulty machine;
* ``unsensitizable`` — no side-input combination lets the faulty pin value
  change the gate output definitely.

Every category implies the exhaustive PODEM search would return UNTESTABLE;
none of them relies on the heuristic CO numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.dominators import DominatorAnalysis
from repro.analysis.implications import (ImplicationTable,
                                         forward_implications,
                                         learn_implications,
                                         necessary_assignments)
from repro.analysis.scoap import INF, ScoapTables, compute_scoap
from repro.atpg.view import get_view
from repro.faults.models import Fault, resolve_injection
from repro.netlist.cells import LOGIC_0, LOGIC_1, LOGIC_X
from repro.netlist.compiled import get_compiled
from repro.netlist.module import Netlist
from repro.simulation.simulator import scalar3_program


@dataclass(frozen=True)
class StaticProof:
    """A per-fault untestability certificate.

    ``category`` names the rule that fired (see module docstring);
    ``detail`` carries the witness — a net name, a conflicting pair — for
    reports and debugging.
    """

    fault: Fault
    category: str
    detail: str = ""


class StaticAnalysis:
    """Netlist-wide static tables plus the per-fault prover."""

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        #: PODEM's own combinational view, shared with every search.
        self.view = view = get_view(netlist)
        self.compiled = compiled = view.compiled
        #: Three-valued constant fixpoint: the good machine under the empty
        #: assignment (tied nets, frozen state, and everything they imply).
        self.base: Tuple[int, ...] = view.base

        self.stats: Dict[str, int] = {}
        self.scoap: ScoapTables = compute_scoap(
            compiled, self.base, view.controllable_ids, view.observation_ids)
        self.dominators = DominatorAnalysis(compiled, view.observation_ids)
        self.implications: ImplicationTable = learn_implications(
            compiled, self.base, stats=self.stats)

        self._necessary_memo: Dict[Tuple[int, int],
                                   Optional[Dict[int, int]]] = {}
        self._overlay_memo: Dict[Tuple[int, ...], Dict[int, int]] = {}

    # ------------------------------------------------------------------ #
    # shared tables
    # ------------------------------------------------------------------ #
    def necessary(self, nid: int, value: int) -> Optional[Dict[int, int]]:
        """Necessary assignments of ``nid = value`` (memoised); ``None``
        proves the value is unreachable."""
        key = (nid, value)
        try:
            return self._necessary_memo[key]
        except KeyError:
            result = necessary_assignments(
                self.compiled, self.base, self.implications, {nid: value})
            self._necessary_memo[key] = result
            return result

    def _overlay(self, origin_ids: Tuple[int, ...]) -> Dict[int, int]:
        """The constant fixpoint with the fault-effect origins forced to X.

        A net that stays definite under this overlay holds that value in
        both the good and the faulty machine for *every* assignment (X at
        the origin covers both machines' site values; assignments only
        refine the remaining inputs, which cannot flip a definite value).
        """
        cached = self._overlay_memo.get(origin_ids)
        if cached is None:
            cached = forward_implications(
                self.compiled, {nid: LOGIC_X for nid in origin_ids},
                self.base)
            self._overlay_memo[origin_ids] = cached
        return cached

    # ------------------------------------------------------------------ #
    # the prover
    # ------------------------------------------------------------------ #
    def prove(self, fault: Fault) -> Optional[StaticProof]:
        """A static untestability proof for ``fault``, or ``None``.

        ``None`` means "no proof", not "testable" — the prover is sound but
        deliberately incomplete.
        """
        spec = resolve_injection(fault)
        excite = self.view.excitation_id(fault)
        if excite is None:
            return StaticProof(fault, "unconnected")
        tied = self.compiled.tied[excite]

        if spec.frames > 1:
            # Launch-on-capture: PODEM's early-out — a site held at a
            # mission constant never transitions.
            if tied is not None or excite in self.view.fixed_ids:
                return StaticProof(
                    fault, "constant-site",
                    self.compiled.net_names[excite])
            # Beyond that, only capture-frame impossibilities are safe to
            # claim: an exhausted *launch* search proves untestability only
            # under conditions (no capture state constraints) that are not
            # visible statically.
            return self._prove_capture(fault, spec.stuck_value)

        if tied is not None and tied == spec.stuck_value:
            return StaticProof(fault, "tied-excitation",
                               self.compiled.net_names[excite])
        return self._prove_capture(fault, spec.stuck_value)

    def _prove_capture(self, fault: Fault,
                       fault_value: int) -> Optional[StaticProof]:
        """Prove the one-frame search against ``fault_value`` must exhaust."""
        compiled = self.compiled
        names = compiled.net_names
        excite = self.view.excitation_id(fault)
        assert excite is not None
        want = LOGIC_1 - fault_value

        if self.scoap.cc(excite, want) >= INF:
            return StaticProof(fault, "uncontrollable-excitation",
                               f"{names[excite]}={want}")

        stem, branch_op, branch_pos = self.view.fault_refs(fault)
        if stem is None and branch_op < 0:
            # Sequential-input pin fault: PODEM simulates it without
            # injection, so its verdict depends on search exhaustion alone —
            # nothing safe to claim statically.
            return None

        if self.necessary(excite, want) is None:
            return StaticProof(fault, "implication-conflict",
                               f"{names[excite]}={want}")

        if stem is not None:
            if not self.dominators.reaches_observation(stem):
                return StaticProof(fault, "unobservable", names[stem])
            overlay = self._overlay((stem,))
            for dom in self.dominators.dominators(stem):
                value = overlay.get(dom, self.base[dom])
                if value != LOGIC_X:
                    return StaticProof(fault, "dominator-constant",
                                       f"{names[dom]}={value}")
            return None

        # Branch fault on a combinational op input pin.
        if not self._sensitizable(branch_op, branch_pos, want, fault_value):
            return StaticProof(fault, "unsensitizable", fault.site)
        origins = tuple(nid for nid in compiled.op_fanout[branch_op]
                        if nid >= 0)
        reachable = [nid for nid in origins
                     if self.dominators.reaches_observation(nid)]
        if not reachable:
            return StaticProof(fault, "unobservable", fault.site)
        overlay = self._overlay(origins)
        for dom in self.dominators.common_dominators(reachable):
            value = overlay.get(dom, self.base[dom])
            if value != LOGIC_X:
                return StaticProof(fault, "dominator-constant",
                                   f"{names[dom]}={value}")
        return None

    def _sensitizable(self, op: int, pin_pos: int, want: int,
                      fault_value: int) -> bool:
        """Can flipping the pin between ``want`` and ``fault_value`` change
        some op output definitely, for any reachable side-input values?

        Side domains over-approximate what PODEM can reach (free sides range
        over {0,1,X}; sides held constant by the fixpoint are pinned, as are
        side pins wired to the faulty pin's net, which carry the good value
        ``want`` in both machines), so ``False`` is a sound impossibility.
        """
        compiled = self.compiled
        fanin = compiled.op_fanin[op]
        pin_net = fanin[pin_pos]
        domains: List[Tuple[int, ...]] = []
        for pos, nid in enumerate(fanin):
            if pos == pin_pos:
                domains.append((LOGIC_X,))  # replaced per evaluation
            elif nid < 0:
                domains.append((LOGIC_X,))
            elif nid == pin_net:
                domains.append((want,))
            elif self.base[nid] != LOGIC_X:
                domains.append((self.base[nid],))
            else:
                domains.append((LOGIC_0, LOGIC_1, LOGIC_X))
        fn = scalar3_program(compiled)[op]

        def expand(pos: int, args: List[int]) -> bool:
            if pos == len(domains):
                args[pin_pos] = want
                good = fn(*args)
                args[pin_pos] = fault_value
                faulty = fn(*args)
                return any(g != f and g != LOGIC_X and f != LOGIC_X
                           for g, f in zip(good, faulty))
            for value in domains[pos]:
                args[pos] = value
                if expand(pos + 1, args):
                    return True
            return False

        return expand(0, [LOGIC_X] * len(domains))


def get_static_analysis(netlist: Netlist) -> StaticAnalysis:
    """The cached :class:`StaticAnalysis` of a netlist.

    Stored as an extension of the compiled netlist, so it shares
    ``get_compiled``'s lifecycle: rebuilt only when the netlist's signature
    changes, shared by every engine in the process."""
    return get_compiled(netlist).extension(
        "static_analysis", lambda c: StaticAnalysis(netlist))
