"""The pre-compiled-IR reference simulators (string-keyed object-graph walk).

These are the original, straightforward implementations of the three-valued
combinational simulator and the serial fault simulator: they traverse the
:class:`~repro.netlist.module.Netlist` object graph through string-keyed
dicts and evaluate cells via their ``eval_fn``.  They are kept as the
*reference semantics* for the compiled execution layer:

* the property tests cross-check the compiled engines against them on random
  circuits;
* ``benchmarks/test_runtime.py`` measures the compiled engines' speedup over
  them and asserts verdict equality.

:class:`LegacySequentialSimulator` and :class:`LegacyToggleMonitor` are the
original cycle simulator (one full levelized sweep per clock cycle, from
fresh plane arrays) and the name-keyed SBST monitor that captured one dict
per cycle: the oracle the event-driven
:class:`~repro.simulation.sequential.SequentialSimulator` and the packed
capture of :class:`~repro.sbst.monitor.ToggleMonitor` are checked against.

:func:`legacy_detects_words` and :func:`legacy_detect_windows` are the
original word-level fault walk (an overlay dict over the good words, one
walk per fault entry) and its window loop: the oracle the grouped,
in-place :func:`~repro.simulation.parallel.detect_windows` is checked
against.

:func:`podem_full_evaluation` and its scans are PODEM's original machine:
both five-valued machines rebuilt by one levelized pass of the cells'
scalar forms, the oracle the event-driven
:class:`~repro.atpg.podem.LiveMachine` is checked against.

They live with the tests as an independent oracle, not in the package;
production code uses the compiled-IR
:class:`~repro.simulation.simulator.CombinationalSimulator` and
:class:`~repro.simulation.fault_sim.FaultSimulator`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.faults.fault import StuckAtFault
from repro.netlist.cells import (LOGIC_0, LOGIC_1, LOGIC_X, PLANE_ENCODING,
                                 encode)
from repro.netlist.module import Netlist, Pin
from repro.netlist.traversal import topological_instances
from repro.simulation.parallel import pair_allowed_words
from repro.simulation.simulator import (CombinationalSimulator, plane_program,
                                        run_plane_ops)


class LegacyCombinationalSimulator:
    """Evaluates the combinational network by walking the object graph."""

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.order = topological_instances(netlist)
        self._state_nets = [
            pin.net.name
            for inst in netlist.sequential_instances()
            for pin in inst.output_pins()
            if pin.net is not None
        ]

    @property
    def state_nets(self) -> list:
        return list(self._state_nets)

    def evaluate(self, inputs: Mapping[str, int],
                 state: Optional[Mapping[str, int]] = None,
                 overrides: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        values: Dict[str, int] = {}

        for name, net in self.netlist.nets.items():
            if net.tied is not None:
                values[name] = net.tied
            else:
                values[name] = LOGIC_X

        for name in self.netlist.input_ports():
            net = self.netlist.net(name)
            if net.tied is None:
                values[name] = inputs.get(name, LOGIC_X)

        if state:
            for name, value in state.items():
                if name in values and self.netlist.nets[name].tied is None:
                    values[name] = value

        if overrides:
            values.update(overrides)

        for inst in self.order:
            pin_values = {}
            for pin in inst.input_pins():
                pin_values[pin.port] = (
                    values[pin.net.name] if pin.net is not None else LOGIC_X
                )
            outputs = inst.cell.evaluate(pin_values)
            for pin in inst.output_pins():
                if pin.net is None:
                    continue
                net = pin.net
                if overrides and net.name in overrides:
                    continue
                if net.tied is not None:
                    continue
                values[net.name] = outputs.get(pin.port, LOGIC_X)

        return values

    def next_state(self, values: Mapping[str, int]) -> Dict[str, int]:
        nxt: Dict[str, int] = {}
        for inst in self.netlist.sequential_instances():
            pin_values = {}
            for pin in inst.input_pins():
                pin_values[pin.port] = (
                    values[pin.net.name] if pin.net is not None else LOGIC_X
                )
            result = inst.cell.evaluate(pin_values)
            new_value = result.get("__next__", LOGIC_X)
            for pin in inst.output_pins():
                if pin.net is not None:
                    if pin.net.tied is not None:
                        nxt[pin.net.name] = pin.net.tied
                    else:
                        nxt[pin.net.name] = new_value
        return nxt


class LegacyFaultSimulator:
    """Serial single-fault simulator over the netlist object graph.

    For each pattern the good machine is simulated once; each fault is then
    simulated by re-walking the full topological order, re-evaluating only
    instances whose inputs changed.
    """

    def __init__(self, netlist: Netlist, observe_state_inputs: bool = True,
                 state_input_roles: Optional[Sequence[str]] = None) -> None:
        from repro.simulation.simulator import observed_state_input_nets

        self.netlist = netlist
        self.sim = LegacyCombinationalSimulator(netlist)
        self.observe_state_inputs = observe_state_inputs
        self.state_input_roles = (tuple(state_input_roles)
                                  if state_input_roles is not None else None)
        nets: Set[str] = set(netlist.observable_output_ports())
        if observe_state_inputs:
            for inst in netlist.sequential_instances():
                nets.update(observed_state_input_nets(inst, self.state_input_roles))
        self._observation_nets = nets

    # ------------------------------------------------------------------ #
    def good_values(self, pattern: Mapping[str, int]) -> Dict[str, int]:
        return self.sim.evaluate(pattern, state=pattern)

    def faulty_values(self, fault: StuckAtFault,
                      pattern: Mapping[str, int],
                      good: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        good = good if good is not None else self.good_values(pattern)
        values = dict(good)

        faulty_pin: Optional[Pin] = None
        if fault.is_port_fault:
            values[fault.site] = fault.value
        else:
            pin = self.netlist.pin_by_name(fault.site)
            if pin.net is None:
                return values
            if pin.is_output:
                values[pin.net.name] = fault.value
            else:
                faulty_pin = pin

        for inst in self.sim.order:
            pin_values = {}
            changed_input = False
            for pin in inst.input_pins():
                if pin.net is None:
                    pin_values[pin.port] = LOGIC_X
                    continue
                value = values[pin.net.name]
                if faulty_pin is not None and pin is faulty_pin:
                    value = fault.value
                    changed_input = True
                elif value != good[pin.net.name]:
                    changed_input = True
                pin_values[pin.port] = value
            if not changed_input:
                continue
            outputs = inst.cell.evaluate(pin_values)
            for out_pin in inst.output_pins():
                if out_pin.net is None:
                    continue
                net = out_pin.net
                if net.tied is not None:
                    continue
                if not fault.is_port_fault and out_pin.name == fault.site:
                    continue  # stuck output stays at the fault value
                values[net.name] = outputs.get(out_pin.port, LOGIC_X)

        return values

    def detects(self, fault: StuckAtFault, pattern: Mapping[str, int],
                good: Optional[Mapping[str, int]] = None) -> bool:
        good = good if good is not None else self.good_values(pattern)
        faulty = self.faulty_values(fault, pattern, good)
        for net in self._observation_nets:
            g, f = good.get(net, LOGIC_X), faulty.get(net, LOGIC_X)
            if g != LOGIC_X and f != LOGIC_X and g != f:
                return True
        return False

    # ------------------------------------------------------------------ #
    def run(self, faults: Iterable[StuckAtFault],
            patterns: Sequence[Mapping[str, int]],
            drop_detected: bool = True):
        from repro.simulation.fault_sim import FaultSimResult

        result = FaultSimResult()
        remaining: List[StuckAtFault] = list(faults)
        for index, pattern in enumerate(patterns):
            if not remaining:
                break
            good = self.good_values(pattern)
            still_undetected: List[StuckAtFault] = []
            for fault in remaining:
                if self.detects(fault, pattern, good):
                    result.detected.add(fault)
                    result.detecting_pattern[fault] = index
                    if not drop_detected:
                        still_undetected.append(fault)
                else:
                    still_undetected.append(fault)
            remaining = still_undetected
        result.undetected.update(remaining)
        return result


# --------------------------------------------------------------------- #
# PODEM's full-sweep five-valued machine
# --------------------------------------------------------------------- #
def podem_full_evaluation(podem, assignments: Mapping[int, int],
                          stem: Optional[int], branch_op: int,
                          branch_pos: int, fault_value: int
                          ) -> Tuple[List[int], List[int]]:
    """Good and faulty values of every net of ``podem``'s combinational
    view under ``assignments``, with the fault injected: a stem fault
    forces the faulty value of its net, a branch fault the faulty value one
    input pin of ``branch_op`` sees."""
    compiled = podem.compiled
    n = compiled.n_nets
    good = [LOGIC_X] * n
    faulty = [LOGIC_X] * n
    for nid, t in enumerate(compiled.tied):
        if t is not None:
            good[nid] = t
            faulty[nid] = t
    for nid, value in podem.view.fixed_ids.items():
        good[nid] = value
        faulty[nid] = value
    for nid, value in assignments.items():
        good[nid] = value
        faulty[nid] = value
    if stem is not None:
        faulty[stem] = fault_value

    tied = compiled.tied
    for i, cell in enumerate(compiled.op_cell):
        good_args = []
        faulty_args = []
        for pos, nid in enumerate(compiled.op_fanin[i]):
            if nid < 0:
                good_args.append(LOGIC_X)
                faulty_args.append(LOGIC_X)
                continue
            good_args.append(good[nid])
            faulty_args.append(fault_value
                               if (i == branch_op and pos == branch_pos)
                               else faulty[nid])
        good_out = cell.scalar(*good_args)
        faulty_out = cell.scalar(*faulty_args)
        for pos, nid in enumerate(compiled.op_fanout[i]):
            if nid < 0 or tied[nid] is not None:
                continue
            good[nid] = good_out[pos]
            faulty[nid] = fault_value if nid == stem else faulty_out[pos]
    return good, faulty


def _fault_effect(g: int, f: int) -> bool:
    return g != LOGIC_X and f != LOGIC_X and g != f


def podem_detected_scan(podem, good: List[int], faulty: List[int]) -> bool:
    """Does any observation point carry a fault effect?"""
    return any(_fault_effect(good[nid], faulty[nid])
               for nid in podem.view.observation_ids)


def podem_d_frontier_scan(podem, good: List[int], faulty: List[int],
                          branch_op: int, branch_pos: int,
                          fault_value: int) -> List[int]:
    """Every op with a fault effect on an input pin and an output still X
    in either machine, by a scan over all ops."""
    compiled = podem.compiled
    frontier: List[int] = []
    for i in range(compiled.n_ops):
        if not any(nid >= 0 and LOGIC_X in (good[nid], faulty[nid])
                   for nid in compiled.op_fanout[i]):
            continue
        for pos, nid in enumerate(compiled.op_fanin[i]):
            if nid < 0:
                continue
            f = (fault_value if (i == branch_op and pos == branch_pos)
                 else faulty[nid])
            if _fault_effect(good[nid], f):
                frontier.append(i)
                break
    return frontier


# --------------------------------------------------------------------- #
# the full-sweep cycle simulator and the name-keyed SBST monitor
# --------------------------------------------------------------------- #
def _decode(b1: int, b0: int) -> int:
    return LOGIC_1 if b1 else (LOGIC_0 if b0 else LOGIC_X)


class LegacySequentialSimulator:
    """One clock cycle per :meth:`step`: fresh plane arrays, one levelized
    pass over every op, then every sequential cell's next state."""

    def __init__(self, netlist: Netlist, x_init: bool = False) -> None:
        self.netlist = netlist
        self.sim = CombinationalSimulator(netlist)
        self._compiled = self.sim.compiled
        self._state: Dict[int, Tuple[int, int]] = {}
        self._init_state(x_init)
        self.cycle = 0

    def _init_state(self, x_init: bool) -> None:
        initial = PLANE_ENCODING[LOGIC_X if x_init else LOGIC_0]
        self._state = {nid: initial for nid in self._compiled.state_net_ids}

    def _refresh(self):
        compiled = self.sim._refresh()
        if compiled is not self._compiled:
            old_names = self._compiled.net_names
            by_name = {old_names[nid]: bits
                       for nid, bits in self._state.items()}
            default = PLANE_ENCODING[LOGIC_0]
            self._state = {
                nid: by_name.get(compiled.net_names[nid], default)
                for nid in compiled.state_net_ids
            }
            self._compiled = compiled
        return compiled

    @property
    def state(self) -> Dict[str, int]:
        names = self._compiled.net_names
        return {names[nid]: _decode(b1, b0)
                for nid, (b1, b0) in self._state.items()}

    def reset(self, x_init: bool = False) -> None:
        self._refresh()
        self._init_state(x_init)
        self.cycle = 0

    def poke(self, net_name: str, value: int) -> None:
        nid = self._compiled.net_id[net_name]
        assert nid in self._state
        self._state[nid] = encode(value, "net", net_name, self.netlist.name)

    def step(self, inputs: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        compiled = self._refresh()
        comb_program, seq_program = plane_program(compiled)
        inputs = inputs or {}
        n = compiled.n_nets
        p1 = [0] * n
        p0 = [0] * n
        frozen = bytearray(n)
        tied = compiled.tied
        names = compiled.net_names

        for nid in range(n):
            t = tied[nid]
            if t is not None:
                if t:
                    p1[nid] = 1
                else:
                    p0[nid] = 1
                frozen[nid] = 1
        for nid in compiled.input_port_ids:
            if tied[nid] is None:
                b1, b0 = encode(inputs.get(names[nid], LOGIC_X), "net",
                                names[nid], self.netlist.name)
                p1[nid] = b1
                p0[nid] = b0
        for nid, (b1, b0) in self._state.items():
            if tied[nid] is None:
                p1[nid] = b1
                p0[nid] = b0

        run_plane_ops(compiled, comb_program, p1, p0, 1, frozen)

        nxt: Dict[int, Tuple[int, int]] = {}
        for i, fn in enumerate(seq_program):
            flat: List[int] = []
            for nid in compiled.seq_fanin[i]:
                if nid >= 0:
                    flat.append(p1[nid])
                    flat.append(p0[nid])
                else:
                    flat.append(0)
                    flat.append(0)
            out = fn(1, *flat)
            for nid in compiled.seq_fanout[i]:
                if nid >= 0:
                    t = tied[nid]
                    nxt[nid] = (PLANE_ENCODING[t] if t is not None
                                else (out[0], out[1]))
        self._state = nxt
        self.cycle += 1
        return {name: _decode(p1[nid], p0[nid])
                for nid, name in enumerate(names)}


class LegacyToggleMonitor:
    """Name-keyed toggle counting and one captured dict per cycle."""

    def __init__(self, netlist: Netlist,
                 mission_inputs: Optional[Mapping[str, int]] = None) -> None:
        self.netlist = netlist
        self.sim = LegacySequentialSimulator(netlist)
        self.mission_inputs: Dict[str, int] = {
            p: 0 for p in netlist.input_ports()}
        if "rst_n" in self.mission_inputs:
            self.mission_inputs["rst_n"] = 1
        self.mission_inputs.update(mission_inputs or {})
        self.toggle_counts: Dict[str, int] = {n: 0 for n in netlist.nets}
        self._previous_values: Optional[Dict[str, int]] = None
        self.controllable_nets: List[str] = []
        self.cycles: List[Dict[str, int]] = []

    def _instruction_inputs(self, word: int, mem_rdata: int) -> Dict[str, int]:
        inputs = dict(self.mission_inputs)
        for port in self.netlist.input_ports():
            index = port[port.index("[") + 1:-1] if "[" in port else ""
            if port.startswith("instr_in["):
                inputs[port] = (word >> int(index)) & 1
            elif port.startswith("mem_rdata["):
                inputs[port] = (mem_rdata >> int(index)) & 1
        return inputs

    def run_program(self, words: Sequence[int],
                    cycles_per_instruction: int = 1,
                    mem_rdata_stream: Optional[Sequence[int]] = None) -> None:
        if not self.controllable_nets:
            self.controllable_nets = (self.netlist.input_ports()
                                      + self.sim.sim.state_nets)
        for index, word in enumerate(words):
            mem_rdata = (mem_rdata_stream[index % len(mem_rdata_stream)]
                         if mem_rdata_stream
                         else (index * 2654435761) & 0xFFFFFFFF)
            inputs = self._instruction_inputs(word, mem_rdata)
            for _ in range(cycles_per_instruction):
                snapshot = dict(inputs)
                snapshot.update({n: (v if v != LOGIC_X else 0)
                                 for n, v in self.sim.state.items()})
                self.cycles.append(snapshot)
                values = self.sim.step(inputs)
                if self._previous_values is not None:
                    for net, value in values.items():
                        previous = self._previous_values.get(net, LOGIC_X)
                        if (value != previous
                                and LOGIC_X not in (value, previous)):
                            self.toggle_counts[net] = \
                                self.toggle_counts.get(net, 0) + 1
                self._previous_values = dict(values)

    def windows(self, word_size: int) -> List[Tuple[Dict[str, int], int]]:
        """The cycle dicts packed ``word_size`` cycles per window."""
        windows = []
        for start in range(0, len(self.cycles), word_size):
            window = self.cycles[start:start + word_size]
            words = {net: 0 for net in self.controllable_nets}
            for index, cycle in enumerate(window):
                for net, value in cycle.items():
                    if value == 1 and net in words:
                        words[net] |= 1 << index
            windows.append((words, len(window)))
        return windows


# --------------------------------------------------------------------- #
# the original word-level fault walk and its window loop
# --------------------------------------------------------------------- #
def legacy_detects_words(compiled, program, site: Tuple, fault_value: int,
                         good: List[int], word_mask: int, obs_flags,
                         allowed: Optional[int] = None) -> bool:
    """The original two-valued word walk of one fault over a window.

    Faulty values live in an overlay dict over ``good``; ops are scheduled
    through a set and evaluated with a fresh argument list.  It returns
    as soon as an observation point differs under an *allowed* pattern
    (``None`` allows the whole window).
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
                heappush(heap, op)
    elif site[0] == "branch":
        branch_op, branch_pos = site[1], site[2]
        scheduled.add(branch_op)
        heappush(heap, branch_op)
    else:
        return False

    while heap:
        op = heappop(heap)
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
                    heappush(heap, lop)
    return False


def legacy_detect_windows(compiled, entries, windows, obs_flags,
                          drop_detected: bool = True) -> Set:
    """The original window loop: every entry walked on its own, inert and
    equivalent ones included, through :func:`legacy_detects_words`."""
    program = [cell.word for cell in compiled.op_cell]
    detected: Set = set()
    remaining = list(entries)
    prev = None
    for good, word_mask, width in windows:
        if not remaining:
            break
        survivors = []
        for entry in remaining:
            key, site, spec = entry
            allowed = None
            if spec.frames > 1:
                allowed = pair_allowed_words(compiled, site, spec, good,
                                             word_mask, prev=prev)
            if legacy_detects_words(compiled, program, site,
                                    spec.stuck_value, good, word_mask,
                                    obs_flags, allowed):
                detected.add(key)
                if drop_detected:
                    continue
            survivors.append(entry)
        remaining = survivors
        prev = (good, width)
    return detected
