"""Tied-value untestability analysis ("UT" classification).

This is the work-horse of the paper's methodology: after the circuit
manipulation step ties debug inputs / constant address bits to fixed values
(and/or floats debug-only outputs), this analysis finds every fault that has
become untestable because of those constants.  Whether a constant blocks
excitation is the fault model's call (stuck-at: the constant equals the
stuck value; transition-delay: any constant, since a held net never
transitions); the propagation/observability walks below are
value-independent and shared by every model:

* **UT** — the fault site is held by an implied constant that blocks the
  model's excitation condition, so the fault can never be excited;
* **UB** — the fault can be excited, but every propagation path towards an
  observation point passes through a gate whose side input is held at a
  controlling constant (or through a capture mux whose select is tied the
  wrong way), so the effect can never advance;
* **UO** — the fault effect can only ever reach output ports that have been
  disconnected (left floating), so it can never be observed.

The analysis is *sound*: every fault it reports is genuinely untestable in
the manipulated circuit.  It is deliberately not complete — faults requiring
a full redundancy proof are left to PODEM (see
:class:`repro.atpg.engine.StructuralUntestabilityEngine`).

All graph walks (observability search, structural reachability, fault-origin
fanout cones) run over the ID-indexed connectivity tables of the shared
:class:`~repro.netlist.compiled.CompiledNetlist`, with per-net results
memoised in dense arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.atpg.implication import ImplicationEngine, get_implication
from repro.faults.categories import FaultClass
from repro.faults.models import Fault, model_of
from repro.netlist.cells import LOGIC_X
from repro.netlist.compiled import NO_NET, get_compiled
from repro.netlist.module import Netlist


@dataclass
class TieAnalysisResult:
    """Outcome of a tied-value analysis over a set of faults."""

    unexcitable: Set[Fault] = field(default_factory=set)       # UT
    propagation_blocked: Set[Fault] = field(default_factory=set)  # UB
    unobservable: Set[Fault] = field(default_factory=set)      # UO
    classifications: Dict[Fault, FaultClass] = field(default_factory=dict)

    @property
    def untestable(self) -> Set[Fault]:
        return self.unexcitable | self.propagation_blocked | self.unobservable

    def count(self) -> int:
        return len(self.untestable)


class TieAnalysis:
    """Classifies faults made untestable by tied nets and floating outputs."""

    def __init__(self, netlist: Netlist,
                 engine: Optional[ImplicationEngine] = None) -> None:
        self.netlist = netlist
        self.engine = engine or get_implication(netlist)
        self.compiled = get_compiled(netlist)
        n = self.compiled.n_nets
        self._observe_cache: List[Optional[bool]] = [None] * n
        self._reach_cache: List[Optional[bool]] = [None] * n
        self._origin_cache: Dict[Tuple[int, ...], bool] = {}

    # ------------------------------------------------------------------ #
    # observability predicates
    # ------------------------------------------------------------------ #
    def _net_observable(self, nid: int) -> bool:
        """Can a value change on this net reach an observation point, given
        the implied constants?  Observation points are observable output
        ports and sequential-cell inputs whose capture path is not blocked.
        """
        cached = self._observe_cache[nid]
        if cached is not None:
            return cached
        # Mark as False first to terminate on (unexpected) cycles.
        self._observe_cache[nid] = False
        result = self._search_observation(nid, untrusted=None, visited=None)
        self._observe_cache[nid] = result
        return result

    def _search_observation(self, nid: int,
                            untrusted: Optional[Set[str]],
                            visited: Optional[Set[int]]) -> bool:
        """One step of the observability traversal, in two trust modes.

        ``untrusted=None`` is the normal, globally-cached mode (recursion
        goes through :meth:`_net_observable`).  With an ``untrusted`` cone
        (net *names*, for the implication engine) the traversal refuses to
        let the cone's implied constants block propagation and tracks
        termination with the caller's ``visited`` ID set instead of the
        global cache (the answer then depends on the fault origin, so it
        must not be memoised per net).
        """
        compiled = self.compiled
        if compiled.is_observable_output[nid]:
            return True
        engine = self.engine
        for op, pos in compiled.net_load_ops[nid]:
            inst = compiled.instances[op]
            port = compiled.op_cell[op].inputs[pos]
            if engine.propagation_blocked(inst, port, untrusted_nets=untrusted):
                continue
            for out in compiled.op_fanout[op]:
                if out < 0:
                    continue
                if untrusted is None:
                    if self._net_observable(out):
                        return True
                elif out not in visited:
                    visited.add(out)
                    if self._search_observation(out, untrusted, visited):
                        return True
        for sq, pos in compiled.net_load_seqs[nid]:
            inst = compiled.seq_instances[sq]
            port = compiled.seq_cell[sq].inputs[pos]
            if not engine.propagation_blocked(inst, port,
                                              untrusted_nets=untrusted):
                return True
        return False

    def _observable_from(self, origins: Tuple[int, ...]) -> bool:
        """Origin-aware observability recheck.

        The cached :meth:`_net_observable` trusts every implied constant when
        declaring a propagation path blocked.  That is unsound when the
        blocking side input lies in the fanout cone of the fault site itself
        (reconvergence: both inputs of a gate branch from the faulty net) —
        the fault overturns the very constant doing the blocking.  This
        recheck re-runs the traversal treating the cone's constants as
        untrusted; only if it still finds no path is "blocked" believable.
        """
        cached = self._origin_cache.get(origins)
        if cached is not None:
            return cached
        compiled = self.compiled
        cone_ids: Set[int] = set()
        for origin in origins:
            cone_ids |= compiled.fanout_nets(origin)
        names = compiled.net_names
        cone_names = {names[nid] for nid in cone_ids}
        visited: Set[int] = set()
        result = False
        for origin in origins:
            if origin not in visited:
                visited.add(origin)
                if self._search_observation(origin, untrusted=cone_names,
                                            visited=visited):
                    result = True
                    break
        self._origin_cache[origins] = result
        return result

    def _net_reaches_any_observation(self, nid: int) -> bool:
        """Pure structural reachability to *any* observation point, ignoring
        constants but honouring floating (unobservable) output ports.
        Used to distinguish UO (nothing observable is even reachable)
        from UB (reachable but blocked by constants)."""
        cached = self._reach_cache[nid]
        if cached is not None:
            return cached
        self._reach_cache[nid] = False
        compiled = self.compiled
        result = False
        if compiled.is_observable_output[nid]:
            result = True
        elif compiled.net_load_seqs[nid]:
            result = True  # a flip-flop captures the value
        else:
            for op, _pos in compiled.net_load_ops[nid]:
                for out in compiled.op_fanout[op]:
                    if out >= 0 and self._net_reaches_any_observation(out):
                        result = True
                        break
                if result:
                    break
        self._reach_cache[nid] = result
        return result

    # ------------------------------------------------------------------ #
    # per-fault classification
    # ------------------------------------------------------------------ #
    def classify_fault(self, fault: Fault) -> Optional[FaultClass]:
        """Return UT/UB/UO if the fault is provably untestable, else None."""
        compiled = self.compiled
        if fault.is_port_fault:
            nid = compiled.id_of(fault.site)
            if nid is None:
                return FaultClass.UO
            constant = self.engine.constant_of(fault.site)
            if constant is not None and model_of(fault).excitation_blocked(
                    fault, constant):
                return FaultClass.UT
            if compiled.is_output_port[nid]:
                if fault.site in self.netlist.unobservable_ports:
                    return FaultClass.UO
                return None
            return self._observability_class(nid)

        kind, index, pos, is_input = compiled.pin_ref(fault.site)
        nid = compiled.pin_net_id(kind, index, pos, is_input)
        if nid == NO_NET:
            return FaultClass.UO

        constant = self.engine.constant_of(compiled.net_names[nid])
        if constant is not None and model_of(fault).excitation_blocked(
                fault, constant):
            return FaultClass.UT

        if not is_input:
            return self._observability_class(nid)

        # Branch fault on an instance input: the effect must first pass
        # through this instance, then reach an observation point.
        if kind == "seq":
            inst = compiled.seq_instances[index]
            port = compiled.seq_cell[index].inputs[pos]
            if self.engine.propagation_blocked(inst, port):
                return FaultClass.UB
            return self._sequential_branch_class(index, port, fault)

        inst = compiled.instances[index]
        port = compiled.op_cell[index].inputs[pos]
        if self.engine.propagation_blocked(inst, port):
            return FaultClass.UB
        out_ids = tuple(out for out in compiled.op_fanout[index] if out >= 0)
        if any(self._net_observable(out) for out in out_ids):
            return None
        if not any(self._net_reaches_any_observation(out) for out in out_ids):
            return FaultClass.UO  # nothing observable is even reachable
        if self._observable_from(out_ids):
            return None  # only blocked by constants the fault itself upsets
        return FaultClass.UB

    def _sequential_branch_class(self, seq_index: int, port: str,
                                 fault: Fault) -> Optional[FaultClass]:
        """Classification of a fault on a flip-flop input pin.

        In the DFT view a value captured into a flip-flop is observable, so
        such faults are normally testable (None).  The exception — and the
        crux of Fig. 5 in the paper — is a flip-flop whose mission value is an
        implied constant: a fault on its clock, reset or data-select pins that
        cannot make the stored value differ from that constant can never be
        observed (e.g. a stuck clock on a register frozen at 0).
        """
        compiled = self.compiled
        cell = compiled.seq_cell[seq_index]
        names = compiled.net_names
        q_constants = []
        for out in compiled.seq_fanout[seq_index]:
            if out < 0:
                continue
            constant = self.engine.constant_of(names[out])
            if constant is None:
                return None  # the state still moves: the fault is capturable
            q_constants.append(constant)
        if not q_constants:
            return FaultClass.UO

        if port == cell.role_pin("clock"):
            # A stuck clock stops the register from updating: it keeps holding
            # its mission constant, so the fault can never be observed.
            return FaultClass.UB

        pin_values = {}
        for in_pos, in_nid in enumerate(compiled.seq_fanin[seq_index]):
            in_port = cell.inputs[in_pos]
            if in_port == port:
                pin_values[in_port] = fault.value
            elif in_nid >= 0:
                value = self.engine.constant_of(names[in_nid])
                pin_values[in_port] = value if value is not None else LOGIC_X
            else:
                pin_values[in_port] = LOGIC_X
        faulty_next = cell.evaluate(pin_values).get("__next__", LOGIC_X)
        if faulty_next != LOGIC_X and faulty_next == q_constants[0]:
            # Even with the fault present the register keeps its mission
            # constant, so the fault can never produce a visible effect.
            return FaultClass.UB
        return None

    def _observability_class(self, nid: int) -> Optional[FaultClass]:
        if self._net_observable(nid):
            return None
        if not self._net_reaches_any_observation(nid):
            return FaultClass.UO  # nothing observable is even reachable
        if self._observable_from((nid,)):
            return None  # only blocked by constants the fault itself upsets
        return FaultClass.UB

    # ------------------------------------------------------------------ #
    def run(self, faults: Iterable[Fault]) -> TieAnalysisResult:
        """Classify every fault in ``faults``."""
        result = TieAnalysisResult()
        for fault in faults:
            cls = self.classify_fault(fault)
            if cls is None:
                continue
            result.classifications[fault] = cls
            if cls is FaultClass.UT:
                result.unexcitable.add(fault)
            elif cls is FaultClass.UB:
                result.propagation_blocked.add(fault)
            elif cls is FaultClass.UO:
                result.unobservable.add(fault)
        return result
