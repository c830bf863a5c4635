"""Random-pattern detection phase.

Before spending PODEM effort on every fault, the untestability engine runs a
burst of random patterns through the bit-parallel fault simulator: any fault
a random pattern detects is certainly testable (class DT) and can be skipped
by the expensive phases.  This is the standard "random phase" of an ATPG
flow and keeps the pure-Python engine practical.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional, Set

from repro.faults.models import Fault
from repro.netlist.module import Netlist
from repro.simulation.parallel import ParallelPatternSimulator
from repro.utils.bitvec import mask


def random_pattern_detection(netlist: Netlist,
                             faults: Iterable[Fault],
                             n_patterns: int = 256,
                             word_size: int = 64,
                             seed: int = 2013,
                             simulator: Optional[ParallelPatternSimulator] = None,
                             ) -> Set[Fault]:
    """Return the subset of ``faults`` detected by random patterns.

    Patterns are applied to every controllable point of the combinational
    view (primary inputs and flip-flop outputs) except tied nets, which keep
    their tie value.
    """
    rng = random.Random(seed)
    sim = simulator or ParallelPatternSimulator(netlist)

    controllable = []
    for port in netlist.input_ports():
        if netlist.net(port).tied is None:
            controllable.append(port)
    for inst in netlist.sequential_instances():
        for pin in inst.output_pins():
            if pin.net is not None and pin.net.tied is None:
                controllable.append(pin.net.name)

    remaining: Set[Fault] = set(faults)
    detected: Set[Fault] = set()
    applied = 0
    while applied < n_patterns and remaining:
        width = min(word_size, n_patterns - applied)
        word_mask = mask(width)
        patterns: Dict[str, int] = {
            net: rng.getrandbits(width) & word_mask for net in controllable
        }
        newly = sim.detected_faults(remaining, patterns, width)
        detected |= newly
        remaining -= newly
        applied += width
    return detected
