"""Cone-affine chunk construction for the work-stealing fault scheduler.

Every parallel engine (:mod:`repro.simulation.sharded`) cuts the fault
population into many *small* chunks, runs each chunk as one task and lets
idle workers pull the next chunk from the parent's deque
(:mod:`repro.runtime.pool`), so load balance emerges at runtime:

- faults sharing a fanout cone stay in one chunk (cone affinity — the
  workers' per-window good-machine memo and cone walks stay hot);
- monster-cone faults (estimated cost >= :data:`MONSTER_RATIO` x the mean)
  become singleton chunks scheduled *first*, longest-processing-time-first
  at chunk granularity, so the tail of the round is made of cheap chunks;
- everything is deterministic: identical inputs produce identical chunks
  in an identical dispatch order, and each fault lives in exactly one
  chunk, which is what keeps pooled verdicts byte-identical to serial no
  matter which worker steals which chunk.

Chunks are tuples of *positions* into the caller's fault list, ascending
within each chunk.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.faults.models import Fault
from repro.netlist.compiled import CompiledNetlist, get_compiled
from repro.netlist.module import Netlist
from repro.simulation.kernels import resolve_site, sole_load_branch

#: A fault whose estimated per-fault cost is this many times the population
#: mean is scheduled as its own singleton chunk, ahead of everything else.
MONSTER_RATIO = 8


def cone_representative(compiled: CompiledNetlist, site: Tuple) -> int:
    """The stem net whose fanout cone a resolved fault site perturbs.

    ``-1`` for inert sites (no cone at all).  Faults with the same
    representative share their simulation cone, which is why
    :func:`build_chunks` keeps them in one chunk.
    """
    if site[0] == "net":
        return site[1]
    if site[0] == "branch":
        for out in compiled.op_fanout[site[1]]:
            if out >= 0:
                return out
    return -1


def default_chunk_size(workers: int, n_items: int) -> int:
    """Chunk granularity: ~16 chunks per worker, clamped to [1, 64].

    Small enough that stealing can rebalance a skewed round, large enough
    that per-task dispatch overhead stays negligible next to simulation.
    """
    if n_items <= 0:
        return 1
    return max(1, min(64, math.ceil(n_items / (max(1, int(workers)) * 16))))


def build_chunks(netlist: Netlist, faults: Iterable[Fault],
                 chunk_size: int,
                 compiled: Optional[CompiledNetlist] = None,
                 fold_stems: bool = False) -> List[Tuple[int, ...]]:
    """Cut ``faults`` into cone-affine chunks in steal-dispatch order.

    Returns position tuples into the input order; the list order *is* the
    dispatch order (monster singletons first, then packed chunks by
    descending estimated cost).  Every position appears in exactly one
    chunk.  Word-level grading passes ``fold_stems``: a stem whose only
    load is one gate pin is then chunked with that branch, because the
    word kernel simulates the two faults as one injection
    (:func:`repro.simulation.kernels.injection_site`).
    """
    fault_list = list(faults)
    if not fault_list:
        return []
    if compiled is None:
        compiled = get_compiled(netlist)
    chunk_size = max(1, int(chunk_size))

    sizes = compiled.fanout_cone_sizes()
    groups: dict = {}
    per_fault_cost: dict = {}
    for position, fault in enumerate(fault_list):
        site = resolve_site(compiled, fault)
        if fold_stems and site[0] == "net":
            site = sole_load_branch(compiled, site[1]) or site
        rep = cone_representative(compiled, site)
        groups.setdefault(rep, []).append(position)
        if rep not in per_fault_cost:
            per_fault_cost[rep] = sizes[rep] + 1 if rep >= 0 else 1

    mean_cost = sum(per_fault_cost[rep] * len(members)
                    for rep, members in groups.items()) / len(fault_list)

    monsters: List[Tuple[int, int, int]] = []  # (cost, rep, position)
    rest: List[Tuple[int, int, List[int]]] = []  # (group cost, rep, members)
    for rep, members in sorted(groups.items()):
        cost = per_fault_cost[rep]
        if cost >= MONSTER_RATIO * max(mean_cost, 1e-9):
            monsters.extend((cost, rep, position) for position in members)
        else:
            rest.append((cost * len(members), rep, members))

    monsters.sort(key=lambda item: (-item[0], item[1], item[2]))
    chunks: List[Tuple[int, ...]] = [(position,)
                                     for _, _, position in monsters]

    # Pack the remaining cone groups, heaviest first.
    rest.sort(key=lambda item: (-item[0], item[1]))
    packed = pack_groups([(per_fault_cost[rep], members)
                          for _, rep, members in rest], chunk_size)
    packed.sort(key=lambda entry: (-entry[0], entry[1]))
    for _, positions in packed:
        chunks.append(tuple(sorted(positions)))
    return chunks


def pack_groups(groups: Iterable[Tuple[int, Sequence[int]]],
                chunk_size: int) -> List[Tuple[int, List[int]]]:
    """LPT packing of ``(per-member cost, members)`` groups, in the given
    order, into chunks of at most ``chunk_size`` members.

    A group goes whole into the lightest chunk with room, the earliest
    such chunk on a tie, or opens a new chunk; a group larger than a chunk
    splits into consecutive runs, each its own chunk.  Returns
    ``(cost, members)`` per chunk in the order the chunks were opened.

    The chunks with room are found through one heap of ``(cost, index)``
    per fill level, so a group looks at ``chunk_size`` heap tops instead
    of every chunk packed so far.
    """
    costs: List[int] = []
    members_of: List[List[int]] = []
    by_fill: List[List[Tuple[int, int]]] = [[] for _ in range(chunk_size + 1)]

    def open_chunk(cost: int, members: List[int]) -> None:
        heapq.heappush(by_fill[len(members)], (cost, len(costs)))
        costs.append(cost)
        members_of.append(members)

    for unit_cost, members in groups:
        m = len(members)
        if m > chunk_size:
            for offset in range(0, m, chunk_size):
                piece = list(members[offset:offset + chunk_size])
                open_chunk(unit_cost * len(piece), piece)
            continue
        best = None
        for fill in range(1, chunk_size - m + 1):
            heap = by_fill[fill]
            if heap and (best is None or heap[0] < by_fill[best][0]):
                best = fill
        if best is None:
            open_chunk(unit_cost * m, list(members))
            continue
        cost, index = heapq.heappop(by_fill[best])
        costs[index] = cost + unit_cost * m
        members_of[index] = members_of[index] + list(members)
        heapq.heappush(by_fill[best + m], (costs[index], index))
    return list(zip(costs, members_of))
