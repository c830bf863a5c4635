"""Cycle-based, event-driven sequential simulation on the compiled plane engine.

Used by the SBST substrate to capture the functional patterns a test program
applies to the processor's combinational blocks, and by integration tests to
check that scan insertion preserves mission-mode behaviour.

The simulator keeps one width-1 plane pair per net (``p1``/``p0``, indexed
by net ID) live across cycles and steps the clock by selective trace
(Ulrich 1969), the method :class:`repro.atpg.podem.LiveMachine` uses for
PODEM:

* the first cycle after construction, :meth:`~SequentialSimulator.reset`
  or a netlist rebuild queues every op and every sequential cell — one
  full levelized sweep;
* after that a cycle sets as sources only the input ports and state nets
  whose value changed, re-evaluates only the loads of changed nets, in
  op-index (topological) order, and re-evaluates only the sequential
  cells with a changed fanin.

Tied nets stay frozen at their tie.  Every net value is a pure function of
the inputs and the stored state, so a live cycle equals a full sweep under
the same sources.  :meth:`~SequentialSimulator.advance` is the ID-level
cycle (it returns the nets that changed, with their old values);
:meth:`~SequentialSimulator.step` is the name-keyed API edge — it
revalidates the compiled netlist, applies name-keyed inputs and returns the
full name-keyed value map.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.netlist.cells import LOGIC_0, LOGIC_1, LOGIC_X, PLANE_ENCODING, encode
from repro.netlist.compiled import CompiledNetlist
from repro.netlist.module import Netlist
from repro.simulation.simulator import CombinationalSimulator, plane_program

#: Width-1 plane pair per logic value (the library's shared encoding).
_ENCODE = PLANE_ENCODING
_X = _ENCODE[LOGIC_X]


def _decode(b1: int, b0: int) -> int:
    return LOGIC_1 if b1 else (LOGIC_0 if b0 else LOGIC_X)


def _caller(arity: int) -> Callable:
    """``call(fn, p1, p0, fanin)``: ``fn`` at width 1 over the planes of the
    ``arity`` nets in ``fanin``, without building an argument list."""
    names = [f"a{i}" for i in range(arity)]
    unpack = f"    {', '.join(names)}, = fanin\n" if names else ""
    planes = "".join(f", p1[{a}], p0[{a}]" for a in names)
    scope: Dict[str, Callable] = {}
    exec(f"def call(fn, p1, p0, fanin):\n{unpack}"
         f"    return fn(1{planes})\n", scope)
    return scope["call"]


def _build_event_tables(compiled: CompiledNetlist):
    """Per-op and per-cell evaluation records and per-net load lists for the
    event loop (memoised per compiled netlist).

    An op record is ``(caller, plane fn, fanin, outs)``; an unconnected pin
    reads net ID ``n_nets``, a slot the simulator keeps X, and ``outs``
    lists ``(plane offset, net ID)`` of the connected, untied outputs.
    """
    n = compiled.n_nets
    comb, seq = plane_program(compiled)
    callers: Dict[int, Callable] = {}

    def record(fn, fanin, fanout, skip_tied: bool):
        ids = tuple(nid if nid >= 0 else n for nid in fanin)
        outs = tuple((2 * pos, nid) for pos, nid in enumerate(fanout)
                     if nid >= 0 and not (skip_tied and
                                          compiled.tied[nid] is not None))
        if len(ids) not in callers:
            callers[len(ids)] = _caller(len(ids))
        return callers[len(ids)], fn, ids, outs

    ops = [record(fn, compiled.op_fanin[i], compiled.op_fanout[i], True)
           for i, fn in enumerate(comb)]
    cells = [record(fn, compiled.seq_fanin[i], compiled.seq_fanout[i], False)
             for i, fn in enumerate(seq)]
    return (ops, cells,
            [tuple(op for op, _ in loads) for loads in compiled.net_load_ops],
            [tuple(sq for sq, _ in loads) for loads in compiled.net_load_seqs],
            bytearray(t is not None for t in compiled.tied))


class SequentialSimulator:
    """Steps a netlist one clock cycle at a time.

    The simulator abstracts the clock: every cycle applies the given
    primary-input values, evaluates the combinational logic, samples the
    module outputs and then updates every flip-flop with its next-state
    value.  ``p1``/``p0`` hold the net values of the last cycle.
    """

    def __init__(self, netlist: Netlist, x_init: bool = False) -> None:
        self.netlist = netlist
        self.sim = CombinationalSimulator(netlist)
        self.cycle = 0
        self.trace: List[Dict[str, int]] = []
        self.record_trace = False
        # One slot past the last net: the X that unconnected pins read.
        n = self.sim.compiled.n_nets + 1
        self.p1: List[int] = [0] * n
        self.p0: List[int] = [0] * n
        self._bind(self.sim.compiled)
        self._init_state(x_init)

    def _bind(self, compiled: CompiledNetlist) -> None:
        self._compiled = compiled
        (self._ops, self._cells, self._load_ops, self._load_seqs,
         self._tied) = compiled.extension("sequential_event_tables",
                                          _build_event_tables)
        state_ids = set(compiled.state_net_ids)
        #: Input ports that act as sources (tied ports and, as in a full
        #: sweep, ports that are also state nets keep their other value).
        self._input_ids = [nid for nid in compiled.input_port_ids
                           if not self._tied[nid] and nid not in state_ids]
        #: The next cycle is a full sweep (construction, reset, rebuild).
        self._full = True
        #: State nets whose stored value may differ from their net value.
        self._pending: Set[int] = set()
        #: State nets poked since the last cycle.
        self._poked: Set[int] = set()

    def _init_state(self, x_init: bool) -> None:
        initial = _ENCODE[LOGIC_X if x_init else LOGIC_0]
        #: Flip-flop state as net ID -> width-1 plane pair (p1, p0).
        self.state_planes: Dict[int, Tuple[int, int]] = {
            nid: initial for nid in self._compiled.state_net_ids}
        self._full = True

    def refresh(self) -> CompiledNetlist:
        """Revalidate the compiled IR; on a rebuild re-key the stored state
        and the live net values by name (new nets start X, new state 0)."""
        compiled = self.sim._refresh()
        if compiled is not self._compiled:
            old_names = self._compiled.net_names
            by_name = {old_names[nid]: bits
                       for nid, bits in self.state_planes.items()}
            default = _ENCODE[LOGIC_0]
            self.state_planes = {
                nid: by_name.get(compiled.net_names[nid], default)
                for nid in compiled.state_net_ids}
            old = {name: (self.p1[nid], self.p0[nid])
                   for nid, name in enumerate(old_names)}
            values = [old.get(name, _X) for name in compiled.net_names]
            self.p1 = [b1 for b1, _ in values] + [0]
            self.p0 = [b0 for _, b0 in values] + [0]
            self._bind(compiled)
        return compiled

    @property
    def compiled(self) -> CompiledNetlist:
        return self._compiled

    # ------------------------------------------------------------------ #
    # state access (name-keyed view of the plane state)
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> Dict[str, int]:
        """Current stored value per state net (flip-flop output), by name."""
        names = self._compiled.net_names
        return {names[nid]: _decode(b1, b0)
                for nid, (b1, b0) in self.state_planes.items()}

    def reset(self, x_init: bool = False) -> None:
        """Reset all state elements to 0 (or X) and restart the cycle counter."""
        self.refresh()
        self._init_state(x_init)
        self.cycle = 0
        self.trace.clear()

    def peek(self, net_name: str) -> int:
        """Current stored value of a state net (flip-flop output)."""
        nid = self._compiled.net_id.get(net_name)
        if nid is None or nid not in self.state_planes:
            return LOGIC_X
        return _decode(*self.state_planes[nid])

    def poke(self, net_name: str, value: int) -> None:
        """Force a state net to a value (debug-style state manipulation)."""
        nid = self._compiled.net_id.get(net_name)
        if nid is None or nid not in self.state_planes:
            raise KeyError(f"{net_name!r} is not a state net of "
                           f"{self.netlist.name!r}")
        self.state_planes[nid] = encode(value, "net", net_name,
                                        self.netlist.name)
        self._pending.add(nid)
        self._poked.add(nid)

    # ------------------------------------------------------------------ #
    # clocking
    # ------------------------------------------------------------------ #
    def advance(self, inputs: Mapping[int, Tuple[int, int]]
                ) -> Tuple[Dict[int, int], List[int]]:
        """One clock cycle in net-ID space, on the compiled netlist as last
        revalidated (:meth:`refresh`).

        ``inputs`` maps input-port net IDs to plane pairs; a port it omits
        is X.  Returns the nets whose value changed against the previous
        cycle, each with its old value, and the state nets whose stored
        value changed.
        """
        p1, p0 = self.p1, self.p0
        tied = self._tied
        compiled = self._compiled
        changed: Dict[int, int] = {}
        heap: List[int] = []
        queued = bytearray(compiled.n_ops)
        load_ops = self._load_ops
        state = self.state_planes

        def source(nid: int, b1: int, b0: int) -> None:
            if b1 != p1[nid] or b0 != p0[nid]:
                changed[nid] = _decode(p1[nid], p0[nid])
                p1[nid] = b1
                p0[nid] = b0
                for op in load_ops[nid]:
                    if not queued[op]:
                        queued[op] = 1
                        heappush(heap, op)

        if self._full:
            # Every source is (re)applied and every op and cell queued, so
            # op-driven nets come out right whatever they held before.
            drivers = compiled.net_driver_op
            for nid, t in enumerate(compiled.tied):
                if t is not None:
                    source(nid, *_ENCODE[t])
                elif nid in state:
                    source(nid, *state[nid])
                elif drivers[nid] < 0 and not compiled.is_input_port[nid]:
                    source(nid, *_X)  # floating
            for nid in self._input_ids:
                source(nid, *inputs.get(nid, _X))
            heap = list(range(compiled.n_ops))
            queued = bytearray(b"\x01") * compiled.n_ops
        else:
            for nid in self._input_ids:
                source(nid, *inputs.get(nid, _X))
            for nid in self._pending:
                if not tied[nid]:
                    source(nid, *state[nid])
        self._pending = set()

        ops = self._ops
        while heap:
            call, fn, fanin, outs = ops[heappop(heap)]
            out = call(fn, p1, p0, fanin)
            for k, nid in outs:
                o1 = out[k]
                o0 = out[k + 1]
                if o1 != p1[nid] or o0 != p0[nid]:
                    changed[nid] = (LOGIC_1 if p1[nid] else
                                    LOGIC_0 if p0[nid] else LOGIC_X)
                    p1[nid] = o1
                    p0[nid] = o0
                    for load in load_ops[nid]:
                        if not queued[load]:
                            queued[load] = 1
                            heappush(heap, load)

        # Next state: only the cells with a changed fanin move; a poked net
        # holds its poke for one cycle, then takes its cell's output again.
        if self._full:
            cells = range(len(self._cells))
            self._full = False
        else:
            load_seqs = self._load_seqs
            marked: Set[int] = set()
            for nid in changed:
                marked.update(load_seqs[nid])
            drivers = compiled.net_driver_seq
            marked.update(drivers[nid] for nid in self._poked)
            cells = sorted(marked)
        self._poked = set()
        records = self._cells
        tied_value = compiled.tied
        state_changed: List[int] = []
        pending = self._pending
        for i in cells:
            call, fn, fanin, outs = records[i]
            out = call(fn, p1, p0, fanin)
            bits = (out[0], out[1])
            for _, nid in outs:
                t = tied_value[nid]
                value = _ENCODE[t] if t is not None else bits
                if state[nid] != value:
                    state[nid] = value
                    state_changed.append(nid)
                    pending.add(nid)
        self.cycle += 1
        return changed, state_changed

    def step(self, inputs: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Advance one clock cycle; returns the full net-value map of the cycle."""
        compiled = self.refresh()
        inputs = inputs or {}
        names = compiled.net_names
        planes = {}
        for nid in compiled.input_port_ids:
            if compiled.tied[nid] is None:
                planes[nid] = encode(inputs.get(names[nid], LOGIC_X), "net",
                                     names[nid], self.netlist.name)
        self.advance(planes)
        p1, p0 = self.p1, self.p0
        values = {name: _decode(p1[nid], p0[nid])
                  for nid, name in enumerate(names)}
        if self.record_trace:
            self.trace.append(dict(values))
        return values

    def run(self, input_sequence: List[Mapping[str, int]]) -> List[Dict[str, int]]:
        """Apply a sequence of input vectors, one per cycle; returns output maps."""
        outputs = []
        for vector in input_sequence:
            values = self.step(vector)
            outputs.append(self.sim.output_values(values, observable_only=False))
        return outputs
