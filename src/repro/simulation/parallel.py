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
construction) — and each faulty machine only re-evaluates the precomputed
fanout cone of its fault site.

X values are not representable here; callers must supply fully-specified
patterns (the ATPG/implication machinery handles the three-valued cases).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.faults.models import Fault, InjectionSpec, resolve_injection
from repro.netlist.compiled import NO_NET, CompiledNetlist
from repro.netlist.module import Netlist
from repro.simulation.kernels import detects_words
from repro.simulation.simulator import CombinationalSimulator, observed_state_input_nets
from repro.utils.bitvec import mask


def _build_word_program(compiled: CompiledNetlist) -> List[Callable]:
    """Resolve the per-op word functions for a compiled netlist (memoised)."""
    return [cell.word for cell in compiled.op_cell]


def word_program(compiled: CompiledNetlist) -> List[Callable]:
    return compiled.extension("word_program", _build_word_program)


def compute_good_words(compiled: CompiledNetlist,
                       patterns: Mapping[str, int],
                       n_patterns: int) -> Tuple[List[int], int]:
    """Good-machine word simulation: ``(values by net ID, window mask)``.

    Shared by :class:`ParallelPatternSimulator` and the sharded grading
    workers (:mod:`repro.simulation.sharded`), so both seed and evaluate
    the fault-free machine identically.
    """
    word_mask = mask(n_patterns)
    program = word_program(compiled)
    tied = compiled.tied
    net_id = compiled.net_id
    values = [0] * compiled.n_nets
    for nid, t in enumerate(tied):
        if t is not None:
            values[nid] = word_mask if t else 0
    for name, word in patterns.items():
        nid = net_id.get(name)
        if nid is not None and tied[nid] is None:
            values[nid] = word & word_mask
    op_fanout = compiled.op_fanout
    for i, fanin in enumerate(compiled.op_fanin):
        args = [values[nid] if nid >= 0 else 0 for nid in fanin]
        out = program[i](word_mask, *args)
        for pos, nid in enumerate(op_fanout[i]):
            if nid >= 0 and tied[nid] is None:
                values[nid] = out[pos]
    return values, word_mask


def pair_allowed_words(compiled: CompiledNetlist, site: Tuple,
                       spec: InjectionSpec, good: Sequence[int],
                       word_mask: int,
                       prev: Optional[Tuple] = None) -> int:
    """Pattern-pair mask of a two-pattern fault over one word window.

    The two-valued counterpart of
    :func:`repro.simulation.fault_sim.pair_allowed_mask`: bit *i* allows
    pattern *i* as the capture pattern when the good machine held the
    spec's initialization value at the excitation net under pattern *i-1*.
    ``prev`` is the previous window's ``(good words, width)`` so pairs
    spanning a window boundary are honoured.
    """
    from repro.simulation.fault_sim import excitation_net_id

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
        self.sim = CombinationalSimulator(netlist)
        self.observe_state_inputs = observe_state_inputs
        self.exclude_output_ports = set(exclude_output_ports or ())
        self.state_input_roles = (tuple(state_input_roles)
                                  if state_input_roles is not None else None)
        self._observation_nets = self._compute_observation_nets()
        # Resolving the word program eagerly also validates that every
        # combinational cell has a word-level model.
        word_program(self.sim.compiled)

    def _compute_observation_nets(self) -> Set[str]:
        nets: Set[str] = set(self.netlist.observable_output_ports())
        nets -= self.exclude_output_ports
        if self.observe_state_inputs:
            for inst in self.netlist.sequential_instances():
                nets.update(observed_state_input_nets(inst, self.state_input_roles))
        return nets

    def _observation_ids(self, compiled: CompiledNetlist) -> List[int]:
        net_id = compiled.net_id
        return [net_id[name] for name in self._observation_nets
                if name in net_id]

    def _observation_flags(self, compiled: CompiledNetlist) -> bytearray:
        flags = bytearray(compiled.n_nets)
        for nid in self._observation_ids(compiled):
            flags[nid] = 1
        return flags

    # ------------------------------------------------------------------ #
    @property
    def observation_nets(self) -> Set[str]:
        """The observation-point net names this simulator detects against."""
        return set(self._observation_nets)

    def _good_words(self, compiled: CompiledNetlist,
                    patterns: Mapping[str, int],
                    n_patterns: int) -> Tuple[List[int], int]:
        return compute_good_words(compiled, patterns, n_patterns)

    def good_simulation(self, patterns: Mapping[str, int],
                        n_patterns: int) -> Dict[str, int]:
        """Simulate ``n_patterns`` patterns at once.

        ``patterns`` maps controllable net names (primary inputs and
        flip-flop outputs) to bit-vector words; missing nets default to 0.
        Returns a word per net.
        """
        compiled = self.sim._refresh()
        values, _ = self._good_words(compiled, patterns, n_patterns)
        return dict(zip(compiled.net_names, values))

    # ------------------------------------------------------------------ #
    def _resolve(self, compiled: CompiledNetlist,
                 fault: Fault) -> Tuple:
        if fault.is_port_fault:
            nid = compiled.id_of(fault.site)
            return ("net", nid) if nid is not None else ("inert",)
        kind, index, pos, is_input = compiled.pin_ref(fault.site)
        table = ((compiled.op_fanin if is_input else compiled.op_fanout)
                 if kind == "op"
                 else (compiled.seq_fanin if is_input else compiled.seq_fanout))
        nid = table[index][pos]
        if nid == NO_NET:
            return ("inert",)
        if not is_input:
            return ("net", nid)
        if kind == "seq":
            # The perturbed value is only seen by the flip-flop capture; the
            # combinational time frame is unchanged.
            return ("inert",)
        return ("branch", index, pos)

    def detected_faults(self, faults: Iterable[Fault],
                        patterns: Mapping[str, int],
                        n_patterns: int,
                        good: Optional[Dict[str, int]] = None) -> Set[Fault]:
        """Return the subset of ``faults`` detected by any of the patterns.

        The window is self-contained: two-pattern faults pair consecutive
        patterns *within* it (pattern *i-1* launches, pattern *i*
        captures), which is the contract the random-pattern phase relies on
        — every burst is an independent launch-on-capture sequence.
        """
        compiled = self.sim._refresh()
        word_mask = mask(n_patterns)
        if good is None:
            good_words, _ = self._good_words(compiled, patterns, n_patterns)
        else:
            net_id = compiled.net_id
            good_words = [0] * compiled.n_nets
            for name, word in good.items():
                nid = net_id.get(name)
                if nid is not None:
                    good_words[nid] = word
        obs_flags = self._observation_flags(compiled)
        program = word_program(compiled)

        detected: Set[Fault] = set()
        for fault in faults:
            site = self._resolve(compiled, fault)
            spec = resolve_injection(fault)
            allowed = None
            if spec.frames > 1:
                allowed = pair_allowed_words(compiled, site, spec,
                                             good_words, word_mask)
                if not allowed:
                    continue
            if detects_words(compiled, program, site, spec.stuck_value,
                             good_words, word_mask, obs_flags, allowed):
                detected.add(fault)
        return detected

    def run_windows(self, faults: Iterable[Fault],
                    windows: Sequence[Tuple[Mapping[str, int], int]],
                    drop_detected: bool = True) -> Set[Fault]:
        """Windowed detection over one *continuous* pattern stream.

        ``windows`` chunks a single cycle sequence into ``(word dict,
        n_patterns)`` windows; unlike :meth:`detected_faults`, two-pattern
        faults pair across window boundaries (the launch pattern may be the
        last cycle of the previous window), so the verdicts are independent
        of the chunking.  ``drop_detected`` stops re-simulating a fault
        after the first detecting window.  Returns the detected set —
        identical to the sharded mission-grading engine by construction.
        """
        compiled = self.sim._refresh()
        obs_flags = self._observation_flags(compiled)
        program = word_program(compiled)
        remaining: List[Fault] = list(faults)
        sites = {f: self._resolve(compiled, f) for f in remaining}
        specs = {f: resolve_injection(f) for f in remaining}
        detected: Set[Fault] = set()
        prev: Optional[Tuple[List[int], int]] = None
        for words, n_patterns in windows:
            if not remaining:
                break
            good, word_mask = compute_good_words(compiled, words, n_patterns)
            still: List[Fault] = []
            for fault in remaining:
                spec = specs[fault]
                allowed = None
                if spec.frames > 1:
                    allowed = pair_allowed_words(compiled, sites[fault],
                                                 spec, good, word_mask,
                                                 prev=prev)
                hit = detects_words(compiled, program, sites[fault],
                                    spec.stuck_value, good, word_mask,
                                    obs_flags, allowed)
                if hit:
                    detected.add(fault)
                if not (hit and drop_detected):
                    still.append(fault)
            remaining = still
            prev = (good, n_patterns)
        return detected
