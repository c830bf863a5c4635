"""Fault-site decoding and the event-driven fault-detection walks.

Fault detection over a pattern window simulates the good machine once
(pattern-parallel Python big ints, one bit per pattern) and then walks each
fault's fanout cone in topological order, evaluating an op only when one of
its inputs differs from the good machine.

:func:`detects_words` is the two-valued word walk every flow path grades
with (the random-pattern phase, compaction and SBST grading, serial or
pooled, all through :func:`repro.simulation.parallel.detect_windows`).  It
works in place: faulty values are written into the window's value list
and restored from the good words afterwards, and it returns on the first
observed difference.  Its per-op call records, live outputs and
deduplicated net loads are built once per compiled netlist
(:func:`word_tables`); :func:`injection_site` folds a single-load stem
onto its branch so equivalent injections walk one site.

:func:`detect_mask_planes` is the three-valued (two-plane) walk of the
serial :class:`~repro.simulation.fault_sim.FaultSimulator`, the one engine
that grades X-padded patterns.  Both walk a site decoded by
:func:`resolve_site` and observe the nets flagged by
:func:`observation_flags`.  :func:`kernel_info` names the kernel in stats
and bench attribution.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.faults.models import Fault
from repro.netlist.compiled import NO_NET, CompiledNetlist


def kernel_info() -> Dict[str, str]:
    """Attribution record for stats/bench JSON."""
    return {"kernel": "int"}


#: The resolved site of a fault that cannot perturb the time frame.
_INERT = ("inert",)


def resolve_site(compiled: CompiledNetlist, fault: Fault) -> Tuple:
    """Classify a fault site against the compiled IR.

    Returns ``("net", nid)`` for stem/port faults, ``("branch", op, pos)``
    for combinational input-pin faults and ``("inert",)`` for sites that
    cannot perturb the combinational time frame (a port fault on an
    unknown net, an unconnected pin, a sequential input pin).  Every
    engine and the chunk scheduler decode sites through this one function.
    """
    if fault.is_port_fault:
        nid = compiled.id_of(fault.site)
        return ("net", nid) if nid is not None else _INERT
    kind, index, pos, is_input = compiled.pin_ref(fault.site)
    table = ((compiled.op_fanin if is_input else compiled.op_fanout)
             if kind == "op"
             else (compiled.seq_fanin if is_input else compiled.seq_fanout))
    nid = table[index][pos]
    if nid == NO_NET:
        return _INERT
    if not is_input:
        return ("net", nid)
    if kind == "seq":
        # A branch fault on a sequential input pin perturbs only what the
        # flip-flop captures; the combinational time frame never changes.
        return _INERT
    return ("branch", index, pos)


def excitation_net_id(compiled: CompiledNetlist, site: Tuple) -> int:
    """The net whose good value excites a fault at a resolved site.

    For stem/port sites this is the forced net itself; for branch sites it
    is the net feeding the perturbed input pin (the value the pin sees in
    the good machine).  ``-1`` for inert sites.  Two-pattern models
    evaluate their initialization condition on this net.
    """
    if site[0] == "net":
        return site[1]
    if site[0] == "branch":
        return compiled.op_fanin[site[1]][site[2]]
    return -1


def observation_flags(compiled: CompiledNetlist,
                      names: Iterable[str]) -> bytearray:
    """Per-net-ID flags of the observation points among ``names``; names
    the compiled netlist does not know are skipped."""
    flags = bytearray(compiled.n_nets)
    net_id = compiled.net_id
    for name in names:
        nid = net_id.get(name)
        if nid is not None:
            flags[nid] = 1
    return flags


# --------------------------------------------------------------------- #
# event-driven faulty-machine walks
# --------------------------------------------------------------------- #
def detect_mask_planes(compiled: CompiledNetlist, program, site: Tuple,
                       fault_value: int, g1: List[int], g0: List[int],
                       frozen, mask: int, obs_flags) -> int:
    """Three-valued (two-plane) detection mask of one fault over a window.

    Event-driven equivalent of the serial simulator's cone sweep: ops are
    evaluated in topological order starting from the fault site, but only
    when one of their inputs actually differs from the good machine, and
    only differing nets enter the overlay.  Nets equal to the good value
    contribute nothing to detection, so the returned mask is identical to
    the full cone sweep's.
    """
    f1 = mask if fault_value else 0
    f0 = 0 if fault_value else mask
    forced = -1
    branch_op = -1
    branch_pos = -1
    overlay: Dict[int, Tuple[int, int]] = {}
    heap: List[int] = []
    scheduled: Set[int] = set()
    net_load_ops = compiled.net_load_ops
    op_fanin = compiled.op_fanin
    op_fanout = compiled.op_fanout
    det = 0

    if site[0] == "net":
        forced = site[1]
        if g1[forced] == f1 and g0[forced] == f0:
            return 0  # forced value equals the good value everywhere
        overlay[forced] = (f1, f0)
        if obs_flags[forced]:
            det |= (g1[forced] & f0) | (g0[forced] & f1)
        for op, _pos in net_load_ops[forced]:
            if op not in scheduled:
                scheduled.add(op)
                heappush(heap, op)
    elif site[0] == "branch":
        branch_op, branch_pos = site[1], site[2]
        scheduled.add(branch_op)
        heappush(heap, branch_op)
    else:
        return 0

    while heap:
        op = heappop(heap)
        args = []
        for pos, nid in enumerate(op_fanin[op]):
            if nid < 0:
                args.append(0)
                args.append(0)
                continue
            if op == branch_op and pos == branch_pos:
                args.append(f1)
                args.append(f0)
                continue
            entry = overlay.get(nid)
            if entry is None:
                args.append(g1[nid])
                args.append(g0[nid])
            else:
                args.append(entry[0])
                args.append(entry[1])
        out = program[op](mask, *args)
        for pos, nid in enumerate(op_fanout[op]):
            if nid < 0 or frozen[nid] or nid == forced:
                continue
            o1 = out[2 * pos]
            o0 = out[2 * pos + 1]
            if o1 == g1[nid] and o0 == g0[nid]:
                continue
            overlay[nid] = (o1, o0)
            if obs_flags[nid]:
                # Definite on both sides and different: good 1 vs faulty
                # 0, or good 0 vs faulty 1.
                det |= (g1[nid] & o0) | (g0[nid] & o1)
            for lop, _pos in net_load_ops[nid]:
                if lop not in scheduled:
                    scheduled.add(lop)
                    heappush(heap, lop)
    return det & mask


# --------------------------------------------------------------------- #
# the in-place two-valued word walk
# --------------------------------------------------------------------- #
def _caller(arity: int) -> Callable:
    """``call(fn, v, m, fanin)``: the word form ``fn`` over the values in
    ``v`` of the ``arity`` nets in ``fanin``, without building an argument
    list."""
    names = [f"a{i}" for i in range(arity)]
    unpack = f"    {', '.join(names)}, = fanin\n" if names else ""
    values = "".join(f", v[{a}]" for a in names)
    scope: Dict[str, Callable] = {}
    exec(f"def call(fn, v, m, fanin):\n{unpack}"
         f"    return fn(m{values})\n", scope)
    return scope["call"]


class WordTables:
    """Per-compiled-netlist tables of the word walk (read-only, shared).

    ``ops[op]`` is ``(caller, word fn, fanin, live outputs)``, the live
    outputs being the ``(position, net ID)`` pairs of the connected,
    untied outputs; ``loads[nid]`` the net's load ops, deduplicated, in
    ascending (topological) order.  The good-machine simulation
    (:func:`repro.simulation.parallel.compute_good_words`) evaluates
    through the same ``ops``.
    """

    __slots__ = ("ops", "loads")

    def __init__(self, compiled: CompiledNetlist) -> None:
        tied = compiled.tied
        callers: Dict[int, Callable] = {}
        ops = []
        for cell, fanin, fanout in zip(compiled.op_cell, compiled.op_fanin,
                                       compiled.op_fanout):
            call = callers.get(len(fanin))
            if call is None:
                call = callers[len(fanin)] = _caller(len(fanin))
            live = tuple((pos, nid) for pos, nid in enumerate(fanout)
                         if nid != NO_NET and tied[nid] is None)
            ops.append((call, cell.word, fanin, live))
        self.ops = ops
        self.loads = [tuple(sorted({op for op, _pos in loads}))
                      for loads in compiled.net_load_ops]


def sole_load_branch(compiled: CompiledNetlist, nid: int) -> Optional[Tuple]:
    """``("branch", op, pos)`` when the net's only load is one
    combinational input pin (no other pin, no flip-flop), else ``None``:
    a stem fault on such a net perturbs exactly that branch's cone."""
    loads = compiled.net_load_ops[nid]
    if len(loads) == 1 and not compiled.net_load_seqs[nid]:
        return ("branch",) + loads[0]
    return None


def word_tables(compiled: CompiledNetlist) -> WordTables:
    """The word walk's tables, built once per compiled netlist."""
    return compiled.extension("word_tables", WordTables)


def injection_site(compiled: CompiledNetlist, site: Tuple,
                   obs_flags) -> Tuple:
    """The site a fault is simulated at: a stem fault on an unobserved net
    whose only load is one combinational pin makes the same faulty machine
    as the branch fault on that pin, so both walk the branch site."""
    if site[0] == "net" and not obs_flags[site[1]]:
        return sole_load_branch(compiled, site[1]) or site
    return site


def detects_words(tables: WordTables, site: Tuple, fault_word: int,
                  v: List[int], good: List[int], word_mask: int, obs_flags,
                  allowed: int, queued: bytearray) -> bool:
    """Two-valued (word) detection of one injection over a pattern window.

    ``v`` is a copy of the window's good words, whose trailing 0 slot
    unconnected pins (``NO_NET``) read; the walk writes faulty values into
    it and restores them from ``good`` before returning.  Ops are
    evaluated in topological (index) order, starting from the site, and
    only when one of their inputs differs from the good machine.  The walk
    returns as soon as an observation point differs under an ``allowed``
    pattern: the verdict cannot change once such a difference is seen.
    ``queued`` is the caller's all-zero per-op flag array, left all zero.
    """
    ops = tables.ops
    loads = tables.loads
    heap: List[int] = []
    written: List[int] = []
    if site[0] == "branch":
        _call, fn, fanin, live = ops[site[1]]
        if good[fanin[site[2]]] == fault_word:
            return False
        args = [v[nid] for nid in fanin]
        args[site[2]] = fault_word
        out = fn(word_mask, *args)
    else:
        forced = site[1]
        if good[forced] == fault_word:
            return False
        if obs_flags[forced] and (good[forced] ^ fault_word) & allowed:
            return True
        v[forced] = fault_word
        written.append(forced)
        heap.extend(loads[forced])  # ascending, so already a heap
        for op in heap:
            queued[op] = 1
        live = ()
    while True:
        for pos, nid in live:
            value = out[pos]
            if value == good[nid]:
                continue
            v[nid] = value
            written.append(nid)
            if obs_flags[nid] and (value ^ good[nid]) & allowed:
                for net in written:
                    v[net] = good[net]
                for op in heap:
                    queued[op] = 0
                return True
            for op in loads[nid]:
                if not queued[op]:
                    queued[op] = 1
                    heappush(heap, op)
        if not heap:
            break
        op = heappop(heap)
        queued[op] = 0
        call, fn, fanin, live = ops[op]
        out = call(fn, v, word_mask, fanin)
    for net in written:
        v[net] = good[net]
    return False
