"""Bit-parallel (pattern-parallel) two-valued simulation.

Python integers are used as arbitrary-width bit vectors: a net's value for
``n`` patterns is held in one integer whose bit *i* is the net value under
pattern *i*.  This gives a pattern-parallel good-machine simulation and a
pattern-parallel serial-fault simulation that the random-pattern phase of the
untestability engine and the SBST fault-grading flow use to knock out the
bulk of detectable faults cheaply.

The simulator runs on the compiled netlist IR: net words live in a flat list
indexed by net ID, gates are evaluated through each cell's word form —
generated from its declaration (:attr:`repro.netlist.cells.Cell.word`) and
resolved to a per-op array once per *compiled netlist* (not per simulator
construction) — and each faulty machine only re-evaluates the gates of
its fault site's cone whose inputs changed.  :func:`detect_windows`, the
window loop of every word-level grade, simulates each distinct injection
once (:func:`injection_groups`) on one in-place value list per window, and
the good machine is evaluated through the same per-op tables.

X values are not representable here; callers must supply fully-specified
patterns (the ATPG/implication machinery handles the three-valued cases).
"""

from __future__ import annotations

from typing import (Dict, Hashable, Iterable, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from repro.faults.models import Fault, InjectionSpec, resolve_injection
from repro.netlist.compiled import CompiledNetlist, get_compiled
from repro.netlist.module import Netlist
from repro.simulation.kernels import (detects_words, excitation_net_id,
                                      injection_site, observation_flags,
                                      resolve_site, word_tables)
from repro.simulation.simulator import observation_net_names
from repro.utils.bitvec import mask


def compute_good_words(compiled: CompiledNetlist,
                       patterns: Mapping[str, int],
                       n_patterns: int) -> Tuple[List[int], int]:
    """Good-machine word simulation: ``(values by net ID, window mask)``.

    The value list carries one trailing 0 slot after the last net, which
    unconnected pins (``NO_NET``) read, so the fault walk
    (:func:`~repro.simulation.kernels.detects_words`) can work on a plain
    copy of it.  Ops are evaluated through the walk's own tables
    (:func:`~repro.simulation.kernels.word_tables`).  Shared by
    :class:`ParallelPatternSimulator`, the random-pattern phase and the
    pooled grading workers (:mod:`repro.simulation.sharded`), so all of
    them seed and evaluate the fault-free machine identically.
    """
    word_mask = mask(n_patterns)
    tied = compiled.tied
    net_id = compiled.net_id
    values = [0] * (compiled.n_nets + 1)
    for nid, t in enumerate(tied):
        if t is not None:
            values[nid] = word_mask if t else 0
    for name, word in patterns.items():
        nid = net_id.get(name)
        if nid is not None and tied[nid] is None:
            values[nid] = word & word_mask
    for call, fn, fanin, live in word_tables(compiled).ops:
        out = call(fn, values, word_mask, fanin)
        for pos, nid in live:
            values[nid] = out[pos]
    return values, word_mask


def pair_allowed_words(compiled: CompiledNetlist, site: Tuple,
                       spec: InjectionSpec, good: Sequence[int],
                       word_mask: int,
                       prev: Optional[Tuple] = None) -> int:
    """Pattern-pair mask of a two-pattern fault over one word window.

    Bit *i* allows pattern *i* as the capture pattern when the good
    machine held the spec's initialization value at the excitation net
    under pattern *i-1*.  ``prev`` is the previous window's ``(good
    words, width)`` so pairs spanning a window boundary are honoured.
    The three-valued serial engine masks with the plane form,
    :func:`repro.simulation.fault_sim.pair_allowed_mask`.
    """
    nid = excitation_net_id(compiled, site)
    if nid < 0:
        return 0
    word = good[nid]
    init_bits = word if spec.init_value else (~word & word_mask)
    allowed = (init_bits << 1) & word_mask
    if prev is not None:
        prev_good, prev_width = prev
        prev_bit = (prev_good[nid] >> (prev_width - 1)) & 1
        if prev_bit == spec.init_value:
            allowed |= 1
    return allowed


#: One fault as the window loop sees it: ``(key, resolved site, spec)``.
FaultEntry = Tuple[Hashable, Tuple, InjectionSpec]


def injection_groups(compiled: CompiledNetlist, entries: Iterable[FaultEntry],
                     obs_flags) -> Dict[Tuple, List[Hashable]]:
    """The keys of ``entries`` by distinct injection ``(site, spec)``.

    Inert entries are left out (nothing can detect them), and a stem site
    that makes the same faulty machine as a branch site is replaced by it
    (:func:`~repro.simulation.kernels.injection_site`), so each group is
    one faulty machine under ``obs_flags``.
    """
    groups: Dict[Tuple, List[Hashable]] = {}
    for key, site, spec in entries:
        if site[0] != "inert":
            group = (injection_site(compiled, site, obs_flags), spec)
            keys = groups.get(group)
            if keys is None:
                groups[group] = [key]
            else:
                keys.append(key)
    return groups


def detect_windows(compiled: CompiledNetlist, entries: Iterable[FaultEntry],
                   windows: Iterable[Tuple[List[int], int, int]],
                   obs_flags) -> Set[Hashable]:
    """The keys of the entries that some window detects.

    ``windows`` yields ``(good words, window mask, width)``, the good
    words as :func:`compute_good_words` returns them (with the trailing 0
    slot), for the consecutive windows of one pattern stream, lazily: the
    loop stops
    pulling windows once no fault is left.  Two-pattern faults pair
    consecutive patterns across window boundaries, so the verdicts do not
    depend on the chunking.  A detected fault is not simulated in later
    windows: the result is the union of every window's detections, so
    walking it again would change only the cost.

    Each distinct injection (:func:`injection_groups`) is simulated once,
    and a detected group detects every key in it.  A window's walks share
    one value list, a copy of its good words, which each walk restores;
    the list and the per-op queue flags belong
    to this call, so threads may share the compiled netlist.
    """
    tables = word_tables(compiled)
    detected: Set[Hashable] = set()
    remaining = list(injection_groups(compiled, entries, obs_flags).items())
    queued = bytearray(compiled.n_ops)
    prev: Optional[Tuple[List[int], int]] = None
    for good, word_mask, width in windows:
        if not remaining:
            break
        v = good[:]
        survivors = []
        for group in remaining:
            (site, spec), keys = group
            if spec.frames > 1:
                allowed = pair_allowed_words(compiled, site, spec, good,
                                             word_mask, prev=prev)
            else:
                allowed = word_mask
            if allowed and detects_words(
                    tables, site, word_mask if spec.stuck_value else 0, v,
                    good, word_mask, obs_flags, allowed, queued):
                detected.update(keys)
            else:
                survivors.append(group)
        remaining = survivors
        prev = (good, width)
    return detected


class ParallelPatternSimulator:
    """Pattern-parallel two-valued simulation and serial-fault detection.

    ``state_input_roles`` restricts which sequential input pins count as
    observation points: ``None`` observes every input pin (the off-line view —
    scan capture makes all of them readable), while an explicit role set such
    as ``("data", "reset")`` models mission-mode capture, where a fault effect
    reaching a scan/debug-only pin (SI, SE, DI, DE) is never stored into
    architectural state and therefore never observed.
    """

    def __init__(self, netlist: Netlist, observe_state_inputs: bool = True,
                 exclude_output_ports: Optional[Set[str]] = None,
                 state_input_roles: Optional[Sequence[str]] = None) -> None:
        self.netlist = netlist
        self.observe_state_inputs = observe_state_inputs
        self.exclude_output_ports = set(exclude_output_ports or ())
        self.state_input_roles = (tuple(state_input_roles)
                                  if state_input_roles is not None else None)
        self._observation_nets = observation_net_names(
            netlist, observe_state_inputs, self.state_input_roles,
            self.exclude_output_ports)

    @property
    def observation_nets(self) -> Set[str]:
        """The observation-point net names this simulator detects against."""
        return set(self._observation_nets)

    def detected_faults(self, faults: Iterable[Fault],
                        patterns: Mapping[str, int],
                        n_patterns: int) -> Set[Fault]:
        """Return the subset of ``faults`` detected by any of the patterns.

        The window is self-contained: two-pattern faults pair consecutive
        patterns *within* it (pattern *i-1* launches, pattern *i*
        captures), which is the contract the random-pattern phase relies on
        — every burst is an independent launch-on-capture sequence.
        """
        return self._detect(faults, [(patterns, n_patterns)])

    def run_windows(self, faults: Iterable[Fault],
                    windows: Sequence[Tuple[Mapping[str, int], int]]
                    ) -> Set[Fault]:
        """Windowed detection over one *continuous* pattern stream.

        ``windows`` chunks a single cycle sequence into ``(word dict,
        n_patterns)`` windows; unlike :meth:`detected_faults`, two-pattern
        faults pair across window boundaries (the launch pattern may be the
        last cycle of the previous window), so the verdicts are independent
        of the chunking.  A fault leaves the simulation after its first
        detecting window.  Returns the detected set —
        identical to the pooled mission-grading engine by construction.
        """
        return self._detect(faults, windows)

    def _detect(self, faults: Iterable[Fault],
                windows: Iterable[Tuple[Mapping[str, int], int]]
                ) -> Set[Fault]:
        compiled = get_compiled(self.netlist)
        good_windows = (compute_good_words(compiled, words, n_patterns)
                        + (n_patterns,)
                        for words, n_patterns in windows)
        entries = [(fault, resolve_site(compiled, fault),
                    resolve_injection(fault)) for fault in faults]
        return detect_windows(
            compiled, entries, good_windows,
            observation_flags(compiled, self._observation_nets))
