"""The heap-based LPT packing equals the linear-scan loop it replaced.

:func:`repro.runtime.scheduler.pack_groups` finds the lightest chunk with
room through one heap per fill level.  :func:`reference_pack` is the
original loop, which scanned every packed chunk for every group; the two
must produce the same chunks, in the same order, with the same costs — on
the cone groups of tiny and small at 2 and 4 workers, and on
hypothesis-generated groups.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.faultlist import generate_fault_list
from repro.runtime import scheduler
from repro.runtime.scheduler import build_chunks, default_chunk_size, pack_groups


def reference_pack(groups: Sequence[Tuple[int, Sequence[int]]],
                   chunk_size: int) -> List[Tuple[int, List[int]]]:
    """Heaviest group first into the lightest chunk with room, scanning
    every chunk packed so far (strict ``<``: the earliest chunk wins a
    tie); a group larger than a chunk splits into consecutive runs."""
    packed: List[List] = []  # [cost, positions]
    for unit_cost, members in groups:
        members = list(members)
        if len(members) > chunk_size:
            for offset in range(0, len(members), chunk_size):
                piece = members[offset:offset + chunk_size]
                packed.append([unit_cost * len(piece), piece])
            continue
        best = None
        for entry in packed:
            if (len(entry[1]) + len(members) <= chunk_size
                    and (best is None or entry[0] < best[0])):
                best = entry
        if best is None:
            packed.append([unit_cost * len(members), list(members)])
        else:
            best[0] += unit_cost * len(members)
            best[1] = best[1] + members
    return [(cost, positions) for cost, positions in packed]


@st.composite
def group_lists(draw):
    chunk_size = draw(st.integers(min_value=1, max_value=12))
    groups = []
    next_member = 0
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        size = draw(st.integers(min_value=1, max_value=2 * chunk_size + 1))
        groups.append((draw(st.integers(min_value=1, max_value=6)),
                       list(range(next_member, next_member + size))))
        next_member += size
    if draw(st.booleans()):
        # Heaviest first, as build_chunks orders them (ties included).
        groups.sort(key=lambda g: -g[0] * len(g[1]))
    return groups, chunk_size


@settings(max_examples=300, deadline=None)
@given(group_lists())
def test_pack_groups_matches_reference_loop(case):
    groups, chunk_size = case
    assert pack_groups(groups, chunk_size) == reference_pack(groups,
                                                             chunk_size)


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("soc_name", ["tiny_soc", "small_soc"])
def test_build_chunks_unchanged_on_shipped_cores(request, soc_name, workers):
    netlist = request.getfixturevalue(soc_name).cpu
    faults = generate_fault_list(netlist).faults()
    size = default_chunk_size(workers, len(faults))
    chunks = build_chunks(netlist, faults, size)
    with mock.patch.object(scheduler, "pack_groups", reference_pack):
        assert chunks == build_chunks(netlist, faults, size)
    assert sorted(p for chunk in chunks for p in chunk) == list(
        range(len(faults)))
