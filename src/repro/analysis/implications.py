"""Static implication learning (Schulz-style) over the compiled IR.

Direct implications — "net ``n`` at value ``v`` forces net ``m`` to ``w``" —
fall out of forward three-valued propagation (:func:`forward_implications`):
seed ``n = v`` on top of the constant fixpoint and harvest every net that
becomes definite.  Such a forced value holds in *every* complete assignment
of the controllable points where ``n = v`` (the propagation used only ``n``
and values that hold unconditionally).  The learning pass stores the
**contrapositives**:
``m != w  =>  n != v`` — the indirect implications a forward propagation
from ``m`` alone would never discover, which is exactly the global knowledge
Schulz's SOCRATES learning adds to a structural ATPG.

The table keys literals as ``2 * net_id + value``.  Direct implications are
not stored: whenever they are needed (the necessary-assignment closure
below, PODEM's conflict check) they are recomputed by one forward
propagation, which is as fast as a table walk and needs no quadratic
memory.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (Dict, List, Mapping, MutableMapping, Optional, Sequence,
                    Set, Tuple)

from repro.netlist.cells import LOGIC_0, LOGIC_1, LOGIC_X
from repro.netlist.compiled import CompiledNetlist
from repro.simulation.simulator import scalar3_program


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


def literal(nid: int, value: int) -> int:
    """Encode (net id, logic value) as a table key."""
    return 2 * nid + value


@dataclass(frozen=True)
class ImplicationTable:
    """Learned indirect implications: literal -> implied (net, value) pairs.

    Every stored edge ``lit(m, w') -> (n, v')`` is a theorem of the circuit
    (relative to the constant fixpoint it was learned against): in every
    complete assignment of the controllable points where ``m = w'``, net
    ``n`` holds ``v'``.
    """

    edges: Mapping[int, Tuple[Tuple[int, int], ...]] = field(
        default_factory=dict)

    def implied_by(self, nid: int, value: int) -> Tuple[Tuple[int, int], ...]:
        return self.edges.get(literal(nid, value), ())

    @property
    def n_edges(self) -> int:
        return sum(len(v) for v in self.edges.values())


def learn_implications(compiled: CompiledNetlist,
                       base: Sequence[int],
                       stats: Optional[Dict[str, int]] = None
                       ) -> ImplicationTable:
    """One learning pass: probe every undetermined net with 0 and with 1.

    For each probe ``n = v`` the forced values ``m = w`` yield contrapositive
    edges ``lit(m, 1-w) -> (n, 1-v)``.  Probing every net once per polarity
    keeps the pass linear in total cone size thanks to the worklist dedupe
    in :func:`forward_implications`.
    """
    raw: Dict[int, List[Tuple[int, int]]] = {}
    net_load_ops = compiled.net_load_ops
    for nid in range(compiled.n_nets):
        if base[nid] != LOGIC_X or not net_load_ops[nid]:
            continue
        for value in (LOGIC_0, LOGIC_1):
            forced = forward_implications(compiled, {nid: value}, base,
                                          stats=stats)
            for m, w in forced.items():
                if m == nid or w == LOGIC_X or base[m] != LOGIC_X:
                    continue
                raw.setdefault(literal(m, 1 - w), []).append(
                    (nid, 1 - value))
    edges = {lit: tuple(sorted(set(pairs))) for lit, pairs in raw.items()}
    if stats is not None:
        stats["learned_edges"] = sum(len(v) for v in edges.values())
    return ImplicationTable(edges=edges)


def necessary_assignments(compiled: CompiledNetlist,
                          base: Sequence[int],
                          table: ImplicationTable,
                          seeds: Mapping[int, int]
                          ) -> Optional[Dict[int, int]]:
    """Values every satisfying assignment of ``seeds`` must produce.

    Starting from the demanded ``seeds`` (net -> value), alternately

    * propagate all current facts forward (their joint consequences), and
    * expand each fact through the learned contrapositive edges,

    until the fact set stabilises.  Each derived fact provably holds in every
    complete assignment of the controllable points under which all seeds
    hold.  Returns the fact map, or ``None`` when a contradiction was
    derived — which proves no assignment can satisfy the seeds at all.
    """
    facts: Dict[int, int] = {}
    for nid, value in sorted(seeds.items()):
        if base[nid] not in (LOGIC_X, value):
            return None
        facts[nid] = value

    while True:
        forced = forward_implications(compiled, facts, base)
        for m, w in sorted(forced.items()):
            if w == LOGIC_X:
                continue
            known = facts.get(m)
            if known is not None and known != w:
                return None
            facts[m] = w

        new_facts: Dict[int, int] = {}
        for m, w in sorted(facts.items()):
            for nid, value in table.implied_by(m, w):
                if base[nid] not in (LOGIC_X, value):
                    return None
                known = facts.get(nid, new_facts.get(nid))
                if known is None:
                    new_facts[nid] = value
                elif known != value:
                    return None
        if not new_facts:
            return facts
        facts.update(new_facts)
