"""The event-driven fault-detection walks behind every fault simulator.

Fault detection over a pattern window simulates the good machine once
(pattern-parallel Python big ints, one bit per pattern) and then walks each
fault's fanout cone in topological order, evaluating an op only when one of
its inputs differs from the good machine.  :func:`detect_mask_planes` is the
three-valued (two-plane) walk, :func:`detects_words` the two-valued word
walk with early exit on the first observed difference.
:func:`kernel_info` names the kernel in stats and bench attribution.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.netlist.compiled import CompiledNetlist


def kernel_info() -> Dict[str, str]:
    """Attribution record for stats/bench JSON."""
    return {"kernel": "int"}


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
                heapq.heappush(heap, op)
    elif site[0] == "branch":
        branch_op, branch_pos = site[1], site[2]
        scheduled.add(branch_op)
        heapq.heappush(heap, branch_op)
    else:
        return 0

    while heap:
        op = heapq.heappop(heap)
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
                    heapq.heappush(heap, lop)
    return det & mask


def detects_words(compiled: CompiledNetlist, program, site: Tuple,
                  fault_value: int, good: List[int], word_mask: int,
                  obs_flags, allowed: Optional[int] = None) -> bool:
    """Two-valued (word) detection of one fault over a pattern window.

    Same event-driven walk as :func:`detect_mask_planes`, with one extra
    liberty the boolean contract allows: return as soon as an observation
    point differs under an *allowed* pattern (the verdict cannot change
    once such a difference is observed).  ``allowed`` is the pattern-pair
    mask of two-pattern models; ``None`` allows the whole window.
    """
    if allowed is None:
        allowed = word_mask
    elif not allowed:
        return False
    fault_word = word_mask if fault_value else 0
    forced = -1
    branch_op = -1
    branch_pos = -1
    overlay: Dict[int, int] = {}
    heap: List[int] = []
    scheduled: Set[int] = set()
    net_load_ops = compiled.net_load_ops
    tied = compiled.tied
    op_fanin = compiled.op_fanin
    op_fanout = compiled.op_fanout

    if site[0] == "net":
        forced = site[1]
        if good[forced] == fault_word:
            return False
        overlay[forced] = fault_word
        if obs_flags[forced] and (good[forced] ^ fault_word) & allowed:
            return True
        for op, _pos in net_load_ops[forced]:
            if op not in scheduled:
                scheduled.add(op)
                heapq.heappush(heap, op)
    elif site[0] == "branch":
        branch_op, branch_pos = site[1], site[2]
        scheduled.add(branch_op)
        heapq.heappush(heap, branch_op)
    else:
        return False

    while heap:
        op = heapq.heappop(heap)
        args = []
        for pos, nid in enumerate(op_fanin[op]):
            if nid < 0:
                args.append(0)
                continue
            if op == branch_op and pos == branch_pos:
                args.append(fault_word)
                continue
            value = overlay.get(nid)
            args.append(good[nid] if value is None else value)
        out = program[op](word_mask, *args)
        for pos, nid in enumerate(op_fanout[op]):
            if nid < 0 or tied[nid] is not None or nid == forced:
                continue
            value = out[pos] & word_mask
            if value == good[nid]:
                continue
            overlay[nid] = value
            if obs_flags[nid] and (value ^ good[nid]) & allowed:
                return True
            for lop, _pos in net_load_ops[nid]:
                if lop not in scheduled:
                    scheduled.add(lop)
                    heapq.heappush(heap, lop)
    return False
