"""Gate-level execution of SBST programs: toggle monitoring and pattern capture.

The paper's §4 workflow uses high-level activity metrics (toggle/condition
coverage) collected while the mature SBST suite runs to shortlist the debug
signals that never move in mission mode.  :class:`ToggleMonitor` provides the
equivalent here: it drives the gate-level core with an instruction stream
through the event-driven :class:`~repro.simulation.sequential.
SequentialSimulator`, counts toggles per net and captures, for every cycle,
the values of all controllable nets (primary inputs plus flip-flop
outputs) — the functional patterns later used for fault grading.

The monitor works in net-ID space: it revalidates the compiled netlist
once per program, drives the instruction and memory-read ports through
port tables built once, counts toggles over the nets the simulator reports
as changed, and captures each controllable net straight into one packed
word (bit *i* = cycle *i*) by recording only the cycles where its value
changes.  Name-keyed views (``toggle_counts``, ``as_parallel_words()``,
:func:`pattern_windows`) are built at the API edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.netlist.cells import LOGIC_X, encode
from repro.netlist.compiled import CompiledNetlist
from repro.netlist.module import Netlist
from repro.simulation.sequential import SequentialSimulator


@dataclass
class CapturedPatterns:
    """Fully-specified per-cycle patterns over the controllable nets.

    ``words`` holds one packed int per controllable net: bit *i* is the
    net's value (X read as 0) in cycle *i* of ``n_cycles``.  The views
    list the nets in the first-occurrence order of ``controllable_nets``.
    """

    controllable_nets: List[str] = field(default_factory=list)
    words: Dict[str, int] = field(default_factory=dict)
    n_cycles: int = 0

    def __len__(self) -> int:
        return self.n_cycles

    def as_parallel_words(self) -> Dict[str, int]:
        """Pack the patterns into bit-vector words (pattern i = bit i)."""
        words = self.words
        return {net: words.get(net, 0) for net in self.controllable_nets}


def pattern_windows(patterns: "CapturedPatterns",
                    word_size: int) -> List[Tuple[Dict[str, int], int]]:
    """Chunk captured cycles into ``(word dict, n_patterns)`` windows.

    The single packing used by the serial grader
    (:meth:`repro.simulation.parallel.ParallelPatternSimulator.run_windows`)
    and the sharded mission-grading engine, so both see byte-identical
    windows of the same cycle stream.
    """
    words = patterns.as_parallel_words()
    windows: List[Tuple[Dict[str, int], int]] = []
    total = patterns.n_cycles
    for start in range(0, total, word_size):
        count = min(word_size, total - start)
        mask = (1 << count) - 1
        windows.append(({net: (word >> start) & mask
                         for net, word in words.items()}, count))
    return windows


class _PortTables:
    """Net-ID tables of one compiled netlist, built once per rebuild."""

    def __init__(self, monitor: "ToggleMonitor",
                 compiled: CompiledNetlist) -> None:
        names = compiled.net_names
        net_id = compiled.net_id
        self.compiled = compiled
        #: Controllable nets, deduplicated, in first-occurrence order.
        self.controllable = (monitor.netlist.input_ports()
                             + [names[nid] for nid in compiled.state_net_ids])
        order = list(dict.fromkeys(self.controllable))
        position = {net: pos for pos, net in enumerate(order)}
        self.order = order
        state_names = {names[nid] for nid in compiled.state_net_ids}
        #: Capture position of every state net.
        self.state_pos = {nid: position[names[nid]]
                          for nid in compiled.state_net_ids}
        #: Capture positions of the other mission inputs (a state net's
        #: position records its stored value, not the supplied input).
        self.input_pos = [(position[port], port)
                          for port in monitor.mission_inputs
                          if port not in state_names]
        #: ``(bit index, capture position or -1, net ID or -1)`` of every
        #: ``instr_in[*]`` / ``mem_rdata[*]`` port.
        self.instr: List[Tuple[int, int, int]] = []
        self.mem: List[Tuple[int, int, int]] = []
        for port in monitor.netlist.input_ports():
            for prefix, table in (("instr_in[", self.instr),
                                  ("mem_rdata[", self.mem)):
                if port.startswith(prefix):
                    nid = net_id.get(port, -1)
                    if nid >= 0 and compiled.tied[nid] is not None:
                        nid = -1
                    pos = -1 if port in state_names else position[port]
                    table.append((int(port[len(prefix):-1]), pos, nid))


class ToggleMonitor:
    """Runs instruction streams on the gate-level core and records activity."""

    def __init__(self, netlist: Netlist,
                 mission_inputs: Optional[Mapping[str, int]] = None) -> None:
        self.netlist = netlist
        self.sim = SequentialSimulator(netlist)
        #: Default value of every input port in mission mode (debug/scan
        #: inputs pulled to constants, reset deasserted).
        self.mission_inputs: Dict[str, int] = {p: 0 for p in netlist.input_ports()}
        if "rst_n" in self.mission_inputs:
            self.mission_inputs["rst_n"] = 1
        if mission_inputs:
            unknown = [port for port in mission_inputs
                       if port not in self.mission_inputs]
            if unknown:
                raise ValueError(
                    f"mission_inputs: {', '.join(map(repr, unknown))} "
                    + ("is not an input port" if len(unknown) == 1
                       else "are not input ports")
                    + f" of netlist {netlist.name!r}")
            for port, value in mission_inputs.items():
                encode(value, "mission input", port, netlist.name)
            self.mission_inputs.update(mission_inputs)
        self._tables: Optional[_PortTables] = None
        #: Toggles per net ID of the current compiled netlist, and the
        #: name-keyed counts carried over from earlier rebuilds.
        self._toggles: List[int] = []
        self._toggle_base: Dict[str, int] = {n: 0 for n in netlist.nets}
        self._stepped = False

    # ------------------------------------------------------------------ #
    @property
    def toggle_counts(self) -> Dict[str, int]:
        """Toggles per net name (0/1 transitions between known values)."""
        counts = dict(self._toggle_base)
        if self._tables is not None:
            names = self._tables.compiled.net_names
            for nid, count in enumerate(self._toggles):
                if count:
                    name = names[nid]
                    counts[name] = counts.get(name, 0) + count
        return counts

    def _revalidate(self) -> _PortTables:
        """Revalidate the compiled netlist (once per program); on a rebuild
        fold the ID-keyed toggle counts into names and rebuild the tables."""
        compiled = self.sim.refresh()
        tables = self._tables
        if tables is None or tables.compiled is not compiled:
            self._toggle_base = self.toggle_counts
            self._toggles = [0] * compiled.n_nets
            tables = self._tables = _PortTables(self, compiled)
        return tables

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
        tables = self._revalidate()
        sim = self.sim
        tied = tables.compiled.tied
        toggles = self._toggles
        state = sim.state_planes
        state_pos = tables.state_pos

        # Sources of the simulator (input-port net ID -> planes).
        planes: Dict[int, Tuple[int, int]] = {}
        net_id = tables.compiled.net_id
        for port, value in self.mission_inputs.items():
            nid = net_id.get(port)
            if nid is not None and tied[nid] is None:
                planes[nid] = encode(value, "net", port, self.netlist.name)

        # Capture: the current bit of every position, the cycle its run of
        # 1s started, and the packed words of the finished runs.
        n_pos = len(tables.order)
        bits = bytearray(n_pos)
        since = [0] * n_pos
        packed = [0] * n_pos
        if capture:
            for pos, port in tables.input_pos:
                bits[pos] = self.mission_inputs[port] == 1
            for nid, pos in state_pos.items():
                bits[pos] = state[nid][0]

        def flip(pos: int, bit: int, cycle: int) -> None:
            if bit:
                since[pos] = cycle
            else:
                packed[pos] |= (1 << cycle) - (1 << since[pos])
            bits[pos] = bit

        cycle = 0
        for index, word in enumerate(words):
            mem_rdata = (mem_rdata_stream[index % len(mem_rdata_stream)]
                         if mem_rdata_stream else (index * 2654435761) & 0xFFFFFFFF)
            for value, table in ((word, tables.instr), (mem_rdata, tables.mem)):
                for index_bit, pos, nid in table:
                    b = (value >> index_bit) & 1
                    if nid >= 0:
                        planes[nid] = (b, 1 - b)
                    if capture and pos >= 0 and bits[pos] != b:
                        flip(pos, b, cycle)
            for _ in range(cycles_per_instruction):
                changed, state_changed = sim.advance(planes)
                if self._stepped:
                    p1, p0 = sim.p1, sim.p0
                    for nid, old in changed.items():
                        if old != LOGIC_X and (p1[nid] or p0[nid]):
                            toggles[nid] += 1
                self._stepped = True
                cycle += 1
                if capture:
                    for nid in state_changed:
                        b = state[nid][0]
                        pos = state_pos[nid]
                        if bits[pos] != b:
                            flip(pos, b, cycle)

        if not capture:
            return CapturedPatterns(list(tables.controllable))
        for pos in range(n_pos):
            if bits[pos]:
                flip(pos, 0, cycle)
        return CapturedPatterns(list(tables.controllable),
                                dict(zip(tables.order, packed)), cycle)

    def run_suite(self, programs: Sequence, capture: bool = True) -> CapturedPatterns:
        """Run several :class:`repro.sbst.program_gen.SbstProgram` objects."""
        merged = CapturedPatterns()
        for program in programs:
            captured = self.run_program(program.words, capture=capture)
            if not merged.controllable_nets:
                merged.controllable_nets = captured.controllable_nets
            shift = merged.n_cycles
            for net, word in captured.words.items():
                merged.words[net] = merged.words.get(net, 0) | word << shift
            merged.n_cycles += captured.n_cycles
        return merged

    # ------------------------------------------------------------------ #
    def quiescent_nets(self) -> List[str]:
        """Nets that never toggled during the monitored runs."""
        return [net for net, count in self.toggle_counts.items() if count == 0]

    def activity_report(self, top: int = 20) -> List[str]:
        ranked = sorted(self.toggle_counts.items(), key=lambda kv: -kv[1])
        return [f"{net}: {count}" for net, count in ranked[:top]]
