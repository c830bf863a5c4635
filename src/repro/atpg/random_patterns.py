"""Random-pattern detection phase.

Before spending PODEM effort on every fault, the untestability engine runs a
burst of random patterns through the bit-parallel fault simulator: any fault
a random pattern detects is certainly testable (class DT) and can be skipped
by the expensive phases.  This is the standard "random phase" of an ATPG
flow and keeps the pure-Python engine practical.

The fault-free machine of a burst depends only on the netlist state and
``(seed, n_patterns, word_size)``, so its good-machine windows are simulated
once per compiled netlist and kept there; every later call for the same
burst (each engine, each pooled chunk) only runs the per-fault detection
walks over them.
"""

from __future__ import annotations

import random
import threading
from typing import Iterable, List, Set, Tuple

from repro.faults.models import Fault, resolve_injection
from repro.netlist.compiled import CompiledNetlist, get_compiled
from repro.netlist.module import Netlist
from repro.simulation.kernels import observation_flags, resolve_site
from repro.simulation.parallel import compute_good_words, detect_windows
from repro.simulation.simulator import observation_net_names
from repro.utils.bitvec import mask

#: Bursts kept per compiled netlist (one per ``(seed, n_patterns,
#: word_size)``; a run uses one, a seed sweep a few).
BURST_MEMO_ENTRIES = 4


def _burst(netlist: Netlist, compiled: CompiledNetlist, n_patterns: int,
           word_size: int, seed: int) -> Tuple[List[Tuple], bytearray]:
    """The good-machine windows ``(words, mask, width)`` of one seeded
    burst and the observation flags, memoised on the compiled netlist."""
    lock, memo = compiled.extension("random_bursts",
                                    lambda c: (threading.Lock(), {}))
    key = (seed, n_patterns, word_size)
    burst = memo.get(key)
    if burst is not None:
        return burst
    # Primary inputs and flip-flop outputs, except tied nets, which keep
    # their tie value.
    names = compiled.net_names
    tied = compiled.tied
    controllable = [names[nid] for nid in compiled.input_port_ids
                    if tied[nid] is None]
    controllable += [names[nid] for nid in compiled.state_net_ids
                     if tied[nid] is None]
    rng = random.Random(seed)
    windows = []
    applied = 0
    while applied < n_patterns:
        width = min(word_size, n_patterns - applied)
        word_mask = mask(width)
        patterns = {net: rng.getrandbits(width) & word_mask
                    for net in controllable}
        windows.append(compute_good_words(compiled, patterns, width)
                       + (width,))
        applied += width
    burst = (windows, observation_flags(
        compiled, observation_net_names(netlist)))
    with lock:
        if len(memo) >= BURST_MEMO_ENTRIES:
            memo.pop(next(iter(memo)))
        memo[key] = burst
    return burst


def random_pattern_detection(netlist: Netlist,
                             faults: Iterable[Fault],
                             n_patterns: int = 256,
                             word_size: int = 64,
                             seed: int = 2013) -> Set[Fault]:
    """Return the subset of ``faults`` detected by random patterns.

    Patterns are applied to every controllable point of the combinational
    view (primary inputs and flip-flop outputs) except tied nets, which keep
    their tie value.  Each window of ``word_size`` patterns is
    self-contained: two-pattern faults pair consecutive patterns within it.
    """
    compiled = get_compiled(netlist)
    windows, obs_flags = _burst(netlist, compiled, n_patterns, word_size,
                                seed)
    remaining = [(fault, resolve_site(compiled, fault),
                  resolve_injection(fault)) for fault in faults]
    detected: Set[Fault] = set()
    for window in windows:
        if not remaining:
            break
        newly = detect_windows(compiled, remaining, [window], obs_flags)
        detected |= newly
        remaining = [entry for entry in remaining if entry[0] not in newly]
    return detected
