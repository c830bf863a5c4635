"""Serial single-fault simulation on the combinational view (any model).

Given a set of input patterns (primary inputs plus flip-flop state values),
the simulator determines which faults are detected: a fault is detected by a
pattern when at least one observation point (observable output port, or
sequential-cell data input when ``observe_state_inputs`` is set) differs
between the good machine and the faulty machine with a definite (non-X)
value on both sides.

The engine is model-generic: every fault resolves — through its registered
:class:`~repro.faults.models.FaultModel` — to an injection+detection spec
(:class:`~repro.faults.models.InjectionSpec`), never to hardcoded stuck-at
values.  Single-pattern models (stuck-at) force the spec's value at the
site; two-pattern launch-on-capture models (transition-delay) additionally
require the site's *good* value in the immediately preceding pattern to
equal the spec's initialization value, expressed as a pattern-pair mask
ANDed onto the per-window detection mask — pairs crossing a window
boundary carry the last bit of the previous window's good planes.

The engine runs on the compiled netlist IR (:mod:`repro.netlist.compiled`):

* patterns are batched into machine words and simulated through the
  two-bit-plane engine of :mod:`repro.simulation.simulator`, so one good
  simulation covers up to ``word_size`` patterns;
* each faulty machine is only re-evaluated over the precomputed fanout cone
  of its fault site (ID-indexed op lists), with all pattern batches of the
  window evaluated at once;
* *fault dropping* (``drop_detected``, on by default) stops simulating a
  fault as soon as one pattern detects it.

Pin-fault semantics are respected: a fault on an instance *input* pin only
perturbs the value seen by that pin; a fault on an *output* pin or module
port perturbs the whole net.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.faults.models import Fault, InjectionSpec, resolve_injection
from repro.netlist.cells import LOGIC_0, LOGIC_1, LOGIC_X
from repro.netlist.compiled import NO_NET, CompiledNetlist
from repro.netlist.module import Netlist
from repro.simulation.kernels import detect_mask_planes
from repro.simulation.simulator import (CombinationalSimulator,
                                        observed_state_input_nets,
                                        plane_program, run_plane_ops)

#: Injection descriptors resolved once per fault.
_INERT = ("inert",)


def observation_net_names(netlist: Netlist, observe_state_inputs: bool = True,
                          state_input_roles: Optional[Sequence[str]] = None
                          ) -> Set[str]:
    """Observation-point net names: observable output ports plus (optionally)
    the observed sequential-cell input nets."""
    nets: Set[str] = set(netlist.observable_output_ports())
    if observe_state_inputs:
        for inst in netlist.sequential_instances():
            nets.update(observed_state_input_nets(inst, state_input_roles))
    return nets


def resolve_site(compiled: CompiledNetlist, fault: Fault) -> Tuple:
    """Classify a fault site against the compiled IR.

    Returns ``("net", nid)`` for stem/port faults, ``("branch", op, pos)``
    for combinational input-pin faults, ``("phantom",)`` for port faults on
    unknown nets and ``("inert",)`` for sites that cannot perturb the
    combinational time frame.  Shared by the serial and the sharded fault
    simulators, so both classify every site identically.
    """
    if fault.is_port_fault:
        nid = compiled.id_of(fault.site)
        if nid is None:
            return ("phantom",)  # unknown net: no effect on the machine
        return ("net", nid)
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
    the good machine).  ``-1`` for inert/phantom sites.  Two-pattern models
    evaluate their initialization condition on this net.
    """
    if site[0] == "net":
        return site[1]
    if site[0] == "branch":
        return compiled.op_fanin[site[1]][site[2]]
    return -1


def pair_allowed_mask(compiled: CompiledNetlist, site: Tuple,
                      spec: InjectionSpec, g1: Sequence[int],
                      g0: Sequence[int], mask: int,
                      prev: Optional[Tuple] = None) -> int:
    """Pattern-pair mask of a two-pattern fault over one plane window.

    Bit *i* is set when pattern *i* may serve as the capture pattern: the
    good machine held the spec's initialization value — definitely — at the
    excitation net under pattern *i-1*.  ``prev`` is the previous window's
    ``(g1, g0, width)`` (or None at the very first window), so consecutive
    pairs spanning a window boundary are honoured; bit 0 of the first
    window has no predecessor and is never allowed.

    Shared by the serial and the sharded simulators, so both mask every
    detection identically (the byte-identity contract).
    """
    nid = excitation_net_id(compiled, site)
    if nid < 0:
        return 0
    init_plane = g0 if spec.init_value == 0 else g1
    allowed = (init_plane[nid] << 1) & mask
    if prev is not None:
        prev_g1, prev_g0, prev_width = prev
        prev_plane = prev_g0 if spec.init_value == 0 else prev_g1
        if (prev_plane[nid] >> (prev_width - 1)) & 1:
            allowed |= 1
    return allowed


def good_planes(compiled: CompiledNetlist, program,
                window: Sequence[Mapping[str, int]]):
    """Pattern-parallel good-machine simulation of a pattern window.

    Returns ``(g1, g0, frozen, mask)`` — the two value planes per net, the
    per-net frozen flags (ties) and the all-ones window mask.
    """
    n = compiled.n_nets
    g1 = [0] * n
    g0 = [0] * n
    frozen = bytearray(n)
    tied = compiled.tied
    mask = (1 << len(window)) - 1
    for nid in range(n):
        t = tied[nid]
        if t is not None:
            if t:
                g1[nid] = mask
            else:
                g0[nid] = mask
            frozen[nid] = 1
    net_id = compiled.net_id
    for index, pattern in enumerate(window):
        bit = 1 << index
        for name, value in pattern.items():
            nid = net_id.get(name)
            if nid is None or tied[nid] is not None:
                continue
            if value == LOGIC_1:
                g1[nid] |= bit
            elif value == LOGIC_0:
                g0[nid] |= bit
    run_plane_ops(compiled, program, g1, g0, mask, frozen)
    return g1, g0, frozen, mask


@dataclass
class FaultSimResult:
    """Outcome of a fault-simulation run."""

    detected: Set[Fault] = field(default_factory=set)
    undetected: Set[Fault] = field(default_factory=set)
    detecting_pattern: Dict[Fault, int] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        total = len(self.detected) + len(self.undetected)
        return len(self.detected) / total if total else 0.0


class FaultSimulator:
    """Serial single-fault simulator over the compiled IR.

    For each window of up to ``word_size`` patterns the good machine is
    simulated once (pattern-parallel); each fault is then simulated by
    re-evaluating only the ops in the structural fan-out cone of the fault
    site — over the whole window at once.  With ``drop_detected`` (the
    default) a fault leaves the simulation as soon as a pattern detects it.
    """

    def __init__(self, netlist: Netlist, observe_state_inputs: bool = True,
                 state_input_roles: Optional[Sequence[str]] = None,
                 drop_detected: bool = True,
                 word_size: int = 64) -> None:
        self.netlist = netlist
        self.sim = CombinationalSimulator(netlist)
        self.observe_state_inputs = observe_state_inputs
        self.state_input_roles = (tuple(state_input_roles)
                                  if state_input_roles is not None else None)
        self.drop_detected = drop_detected
        self.word_size = word_size
        self._observation_nets = self._compute_observation_nets()

    def _compute_observation_nets(self) -> Set[str]:
        return observation_net_names(self.netlist, self.observe_state_inputs,
                                     self.state_input_roles)

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
    # fault-site resolution
    # ------------------------------------------------------------------ #
    def _resolve(self, compiled: CompiledNetlist, fault: Fault) -> Tuple:
        """Classify the fault site: net force, comb branch pin, or inert."""
        return resolve_site(compiled, fault)

    # ------------------------------------------------------------------ #
    # plane seeding
    # ------------------------------------------------------------------ #
    def _planes_from_values(self, compiled: CompiledNetlist,
                            values: Mapping[str, int]):
        """Lift a full name→value map (e.g. a cached good simulation) back
        onto width-1 planes."""
        n = compiled.n_nets
        g1 = [0] * n
        g0 = [0] * n
        frozen = bytearray(n)
        net_id = compiled.net_id
        for name, value in values.items():
            nid = net_id.get(name)
            if nid is None:
                continue
            if value == LOGIC_1:
                g1[nid] = 1
            elif value == LOGIC_0:
                g0[nid] = 1
        for nid, t in enumerate(compiled.tied):
            if t is not None:
                frozen[nid] = 1
        return g1, g0, frozen, 1

    # ------------------------------------------------------------------ #
    # faulty-machine simulation (cone-limited, pattern-parallel)
    # ------------------------------------------------------------------ #
    def _faulty_overlay(self, compiled: CompiledNetlist, program, site: Tuple,
                        fault_value: int, g1, g0, frozen, mask
                        ) -> Optional[Dict[int, Tuple[int, int]]]:
        """Sparse {net id: (f1, f0)} of nets that differ in the faulty
        machine; None when the fault cannot perturb anything."""
        forced = -1
        branch_op = -1
        branch_pos = -1
        overlay: Dict[int, Tuple[int, int]] = {}
        f1 = mask if fault_value else 0
        f0 = 0 if fault_value else mask

        if site[0] == "net":
            forced = site[1]
            if g1[forced] == f1 and g0[forced] == f0:
                return None  # forced value equals the good value everywhere
            overlay[forced] = (f1, f0)
            cone = compiled.fanout_ops(forced)
        elif site[0] == "branch":
            branch_op, branch_pos = site[1], site[2]
            cone = compiled.branch_cone(branch_op)
        else:
            return None

        op_fanin = compiled.op_fanin
        op_fanout = compiled.op_fanout
        for op in cone:
            changed = False
            args = []
            for pos, nid in enumerate(op_fanin[op]):
                if nid < 0:
                    args.append(0)
                    args.append(0)
                    continue
                if op == branch_op and pos == branch_pos:
                    args.append(f1)
                    args.append(f0)
                    changed = True
                    continue
                entry = overlay.get(nid)
                if entry is None:
                    args.append(g1[nid])
                    args.append(g0[nid])
                else:
                    args.append(entry[0])
                    args.append(entry[1])
                    if entry[0] != g1[nid] or entry[1] != g0[nid]:
                        changed = True
            if not changed:
                continue
            out = program[op](mask, *args)
            for pos, nid in enumerate(op_fanout[op]):
                if nid < 0 or frozen[nid] or nid == forced:
                    continue
                overlay[nid] = (out[2 * pos], out[2 * pos + 1])
        return overlay

    # ------------------------------------------------------------------ #
    # single-pattern primitives
    # ------------------------------------------------------------------ #
    def good_values(self, pattern: Mapping[str, int]) -> Dict[str, int]:
        """Simulate the fault-free machine for one pattern (flat input map)."""
        return self.sim.evaluate(pattern, state=pattern)

    def faulty_values(self, fault: Fault,
                      pattern: Mapping[str, int],
                      good: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Simulate the faulty machine for one pattern.

        For a two-pattern model this is the *capture-frame* view: the site
        shows the spec's stuck value (the transition arrived late).
        """
        good = good if good is not None else self.good_values(pattern)
        compiled = self.sim._refresh()
        program, _ = plane_program(compiled)
        values = dict(good)
        spec = resolve_injection(fault)
        site = self._resolve(compiled, fault)
        if site[0] == "phantom":
            values[fault.site] = spec.stuck_value
            return values
        g1, g0, frozen, mask = self._planes_from_values(compiled, good)
        overlay = self._faulty_overlay(compiled, program, site,
                                       spec.stuck_value, g1, g0, frozen, mask)
        if overlay:
            names = compiled.net_names
            for nid, (f1, f0) in overlay.items():
                values[names[nid]] = (LOGIC_1 if f1 else
                                      (LOGIC_0 if f0 else LOGIC_X))
        return values

    def detects(self, fault: Fault, pattern: Mapping[str, int],
                good: Optional[Mapping[str, int]] = None,
                prev_pattern: Optional[Mapping[str, int]] = None) -> bool:
        """True if ``pattern`` detects ``fault`` at an observation point.

        For a two-pattern model ``prev_pattern`` supplies the launch
        pattern (the preceding one); a lone pattern never detects a
        two-pattern fault, so without it the answer is always False.
        """
        compiled = self.sim._refresh()
        program, _ = plane_program(compiled)
        if good is None:
            g1, g0, frozen, mask = good_planes(compiled, program, [pattern])
        else:
            g1, g0, frozen, mask = self._planes_from_values(compiled, good)
        spec = resolve_injection(fault)
        site = self._resolve(compiled, fault)
        obs_flags = self._observation_flags(compiled)
        det = detect_mask_planes(compiled, program, site, spec.stuck_value,
                                 g1, g0, frozen, mask, obs_flags)
        if det and spec.frames > 1:
            if prev_pattern is None:
                return False
            p1, p0, _, _ = good_planes(compiled, program, [prev_pattern])
            det &= pair_allowed_mask(compiled, site, spec, g1, g0, mask,
                                     prev=(p1, p0, 1))
        return bool(det)

    # ------------------------------------------------------------------ #
    # multi-pattern runs
    # ------------------------------------------------------------------ #
    def run(self, faults: Iterable[Fault],
            patterns: Sequence[Mapping[str, int]],
            drop_detected: Optional[bool] = None) -> FaultSimResult:
        """Fault-simulate ``patterns`` against ``faults``.

        With ``drop_detected`` (fault dropping, the constructor default — on
        unless overridden) a fault is not re-simulated once a pattern
        detects it: the standard fault-simulation speed-up.  Two-pattern
        faults treat ``patterns`` as one consecutive launch-on-capture
        sequence (pattern *i-1* launches, pattern *i* captures — across
        window boundaries too).
        """
        drop = self.drop_detected if drop_detected is None else drop_detected
        compiled = self.sim._refresh()
        program, _ = plane_program(compiled)
        obs_flags = self._observation_flags(compiled)

        result = FaultSimResult()
        remaining: List[Fault] = list(faults)
        sites = {fault: self._resolve(compiled, fault) for fault in remaining}
        specs = {fault: resolve_injection(fault) for fault in remaining}

        start = 0
        n_patterns = len(patterns)
        prev_planes: Optional[Tuple] = None
        while start < n_patterns and remaining:
            window = patterns[start:start + self.word_size]
            g1, g0, frozen, mask = good_planes(compiled, program, window)
            still_undetected: List[Fault] = []
            for fault in remaining:
                spec = specs[fault]
                det = detect_mask_planes(compiled, program, sites[fault],
                                         spec.stuck_value, g1, g0, frozen,
                                         mask, obs_flags)
                if det and spec.frames > 1:
                    det &= pair_allowed_mask(compiled, sites[fault], spec,
                                             g1, g0, mask, prev=prev_planes)
                if det:
                    result.detected.add(fault)
                    if drop:
                        # First detecting pattern of the window.
                        result.detecting_pattern[fault] = (
                            start + (det & -det).bit_length() - 1)
                    else:
                        # Keep simulating; like the serial reference, the
                        # recorded index is the *last* detecting pattern.
                        result.detecting_pattern[fault] = (
                            start + det.bit_length() - 1)
                        still_undetected.append(fault)
                else:
                    still_undetected.append(fault)
            remaining = still_undetected
            prev_planes = (g1, g0, len(window))
            start += len(window)
        result.undetected.update(remaining)
        return result
