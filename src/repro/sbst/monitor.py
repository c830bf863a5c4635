"""Gate-level execution of SBST programs: toggle monitoring and pattern capture.

The paper's §4 workflow uses high-level activity metrics (toggle/condition
coverage) collected while the mature SBST suite runs to shortlist the debug
signals that never move in mission mode.  :class:`ToggleMonitor` provides the
equivalent here: it drives the gate-level core with an instruction stream
through the sequential simulator, counts toggles per net and captures, for
every cycle, the values of all controllable nets (primary inputs plus
flip-flop outputs) — the functional patterns later used for fault grading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.netlist.cells import LOGIC_X
from repro.netlist.module import Netlist
from repro.simulation.sequential import SequentialSimulator
from repro.utils.bitvec import bit


@dataclass
class CapturedPatterns:
    """Fully-specified per-cycle patterns over the controllable nets."""

    controllable_nets: List[str] = field(default_factory=list)
    cycles: List[Dict[str, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.cycles)

    def as_parallel_words(self) -> Dict[str, int]:
        """Pack the patterns into bit-vector words (pattern i = bit i)."""
        words: Dict[str, int] = {net: 0 for net in self.controllable_nets}
        for index, cycle in enumerate(self.cycles):
            for net, value in cycle.items():
                if value == 1:
                    words[net] |= 1 << index
        return words


def pattern_windows(patterns: "CapturedPatterns",
                    word_size: int) -> List[Tuple[Dict[str, int], int]]:
    """Chunk captured cycles into ``(word dict, n_patterns)`` windows.

    The single packing used by the serial grader
    (:meth:`repro.simulation.parallel.ParallelPatternSimulator.run_windows`)
    and the sharded mission-grading engine, so both see byte-identical
    windows of the same cycle stream.
    """
    windows: List[Tuple[Dict[str, int], int]] = []
    cycles = patterns.cycles
    for start in range(0, len(cycles), word_size):
        window = cycles[start:start + word_size]
        words = {net: 0 for net in patterns.controllable_nets}
        for index, cycle in enumerate(window):
            for net, value in cycle.items():
                if value == 1 and net in words:
                    words[net] |= 1 << index
        windows.append((words, len(window)))
    return windows


class ToggleMonitor:
    """Runs instruction streams on the gate-level core and records activity."""

    def __init__(self, netlist: Netlist,
                 mission_inputs: Optional[Mapping[str, int]] = None) -> None:
        self.netlist = netlist
        self.sim = SequentialSimulator(netlist)
        #: Default value of every input port in mission mode (debug/scan
        #: inputs pulled to constants, reset deasserted).
        self.mission_inputs: Dict[str, int] = {p: 0 for p in netlist.input_ports()}
        self.mission_inputs["rst_n"] = 1
        if mission_inputs:
            self.mission_inputs.update(mission_inputs)
        self.toggle_counts: Dict[str, int] = {n: 0 for n in netlist.nets}
        self._previous_values: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------ #
    def _instruction_inputs(self, word: int, mem_rdata: int = 0) -> Dict[str, int]:
        inputs = dict(self.mission_inputs)
        instr_ports = [p for p in self.netlist.input_ports() if p.startswith("instr_in[")]
        for port in instr_ports:
            index = int(port[port.index("[") + 1:-1])
            inputs[port] = bit(word, index)
        for port in self.netlist.input_ports():
            if port.startswith("mem_rdata["):
                index = int(port[port.index("[") + 1:-1])
                inputs[port] = bit(mem_rdata, index)
        return inputs

    def _record_toggles(self, values: Dict[str, int]) -> None:
        if self._previous_values is not None:
            for net, value in values.items():
                previous = self._previous_values.get(net, LOGIC_X)
                if (value != previous and value != LOGIC_X and previous != LOGIC_X):
                    self.toggle_counts[net] = self.toggle_counts.get(net, 0) + 1
        self._previous_values = dict(values)

    # ------------------------------------------------------------------ #
    def run_program(self, words: Sequence[int],
                    cycles_per_instruction: int = 1,
                    mem_rdata_stream: Optional[Sequence[int]] = None,
                    capture: bool = True) -> CapturedPatterns:
        """Feed an instruction stream into the core, one word per cycle.

        The synthetic core is not a cycle-accurate implementation of the ISA;
        what matters here is realistic functional activity, so the words are
        streamed in program order (optionally repeated) regardless of the
        core's own branching.
        """
        controllable = (self.netlist.input_ports()
                        + self.sim.sim.state_nets)
        patterns = CapturedPatterns(controllable_nets=list(controllable))

        for index, word in enumerate(words):
            mem_rdata = (mem_rdata_stream[index % len(mem_rdata_stream)]
                         if mem_rdata_stream else (index * 2654435761) & 0xFFFFFFFF)
            inputs = self._instruction_inputs(word, mem_rdata)
            for _ in range(cycles_per_instruction):
                if capture:
                    snapshot = dict(inputs)
                    snapshot.update({n: (v if v != LOGIC_X else 0)
                                     for n, v in self.sim.state.items()})
                    patterns.cycles.append(snapshot)
                values = self.sim.step(inputs)
                self._record_toggles(values)
        return patterns

    def run_suite(self, programs: Sequence, capture: bool = True) -> CapturedPatterns:
        """Run several :class:`repro.sbst.program_gen.SbstProgram` objects."""
        merged = CapturedPatterns()
        for program in programs:
            captured = self.run_program(program.words, capture=capture)
            if not merged.controllable_nets:
                merged.controllable_nets = captured.controllable_nets
            merged.cycles.extend(captured.cycles)
        return merged

    # ------------------------------------------------------------------ #
    def quiescent_nets(self) -> List[str]:
        """Nets that never toggled during the monitored runs."""
        return [net for net, count in self.toggle_counts.items() if count == 0]

    def activity_report(self, top: int = 20) -> List[str]:
        ranked = sorted(self.toggle_counts.items(), key=lambda kv: -kv[1])
        return [f"{net}: {count}" for net, count in ranked[:top]]
