"""Serial three-valued single-fault simulation on the combinational view.

This is the one engine that grades patterns with X bits (a PODEM cube
before any fill); every flow path that grades fully specified patterns
runs the two-valued word engine of :mod:`repro.simulation.parallel`.

Given a set of input patterns (primary inputs plus flip-flop state values),
the simulator determines which faults are detected: a fault is detected by a
pattern when at least one observation point (observable output port, or
sequential-cell data input when ``observe_state_inputs`` is set) differs
between the good machine and the faulty machine with a definite (non-X)
value on both sides.

The engine is model-generic: every fault resolves — through its owning
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
from repro.netlist.cells import LOGIC_0, LOGIC_1
from repro.netlist.compiled import CompiledNetlist, get_compiled
from repro.netlist.module import Netlist
from repro.simulation.kernels import (detect_mask_planes, excitation_net_id,
                                      observation_flags, resolve_site)
from repro.simulation.simulator import (observation_net_names,
                                        plane_program, run_plane_ops)


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
        self.observe_state_inputs = observe_state_inputs
        self.state_input_roles = (tuple(state_input_roles)
                                  if state_input_roles is not None else None)
        self.drop_detected = drop_detected
        self.word_size = word_size
        self._observation_nets = observation_net_names(
            netlist, observe_state_inputs, self.state_input_roles)

    def detects(self, fault: Fault, pattern: Mapping[str, int],
                prev_pattern: Optional[Mapping[str, int]] = None) -> bool:
        """True if ``pattern`` detects ``fault`` at an observation point.

        For a two-pattern model ``prev_pattern`` supplies the launch
        pattern (the preceding one); a lone pattern never detects a
        two-pattern fault, so without it the answer is always False.
        """
        compiled = get_compiled(self.netlist)
        program, _ = plane_program(compiled)
        g1, g0, frozen, mask = good_planes(compiled, program, [pattern])
        spec = resolve_injection(fault)
        site = resolve_site(compiled, fault)
        det = detect_mask_planes(
            compiled, program, site, spec.stuck_value, g1, g0, frozen, mask,
            observation_flags(compiled, self._observation_nets))
        if det and spec.frames > 1:
            if prev_pattern is None:
                return False
            p1, p0, _, _ = good_planes(compiled, program, [prev_pattern])
            det &= pair_allowed_mask(compiled, site, spec, g1, g0, mask,
                                     prev=(p1, p0, 1))
        return bool(det)

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
        compiled = get_compiled(self.netlist)
        program, _ = plane_program(compiled)
        obs_flags = observation_flags(compiled, self._observation_nets)

        result = FaultSimResult()
        remaining: List[Fault] = list(faults)
        sites = {fault: resolve_site(compiled, fault) for fault in remaining}
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
