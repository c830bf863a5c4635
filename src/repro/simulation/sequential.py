"""Cycle-based sequential simulation directly on the compiled plane engine.

Used by the SBST substrate to capture the functional patterns a test program
applies to the processor's combinational blocks, and by integration tests to
check that scan insertion preserves mission-mode behaviour.

The simulator holds its flip-flop state as ID-indexed bit-plane pairs and
steps the clock entirely inside the compiled IR: one levelized pass of the
shared plane program evaluates the combinational network, and the
sequential cells' next-state plane functions consume the result planes
in place — no per-cycle name→value dict round-trips through the legacy
``evaluate``/``next_state`` API.  The public surface (``step`` returning
the full net-value map, ``state``, ``peek``/``poke``) is unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.netlist.cells import LOGIC_0, LOGIC_1, LOGIC_X, PLANE_ENCODING, encode
from repro.netlist.module import Netlist
from repro.simulation.simulator import (CombinationalSimulator, plane_program,
                                        run_plane_ops)

#: Width-1 plane pair per logic value (the library's shared encoding).
_ENCODE = PLANE_ENCODING


def _decode(b1: int, b0: int) -> int:
    return LOGIC_1 if b1 else (LOGIC_0 if b0 else LOGIC_X)


class SequentialSimulator:
    """Steps a netlist one clock cycle at a time.

    The simulator abstracts the clock: every call to :meth:`step` applies the
    given primary-input values, evaluates the combinational logic, samples the
    module outputs and then updates every flip-flop with its next-state value.
    """

    def __init__(self, netlist: Netlist, x_init: bool = False) -> None:
        self.netlist = netlist
        self.sim = CombinationalSimulator(netlist)
        self._compiled = self.sim.compiled
        #: Flip-flop state as net ID -> width-1 plane pair (p1, p0).
        self._state: Dict[int, Tuple[int, int]] = {}
        self._init_state(x_init)
        self.cycle = 0
        self.trace: List[Dict[str, int]] = []
        self.record_trace = False

    def _init_state(self, x_init: bool) -> None:
        initial = _ENCODE[LOGIC_X if x_init else LOGIC_0]
        self._state = {nid: initial for nid in self._compiled.state_net_ids}

    def _refresh(self):
        """Revalidate the compiled IR, re-keying state by name on a rebuild."""
        compiled = self.sim._refresh()
        if compiled is not self._compiled:
            old_names = self._compiled.net_names
            by_name = {old_names[nid]: bits
                       for nid, bits in self._state.items()}
            default = _ENCODE[LOGIC_0]
            self._state = {
                nid: by_name.get(compiled.net_names[nid], default)
                for nid in compiled.state_net_ids
            }
            self._compiled = compiled
        return compiled

    # ------------------------------------------------------------------ #
    # state access (name-keyed view of the plane state)
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> Dict[str, int]:
        """Current stored value per state net (flip-flop output), by name."""
        names = self._compiled.net_names
        return {names[nid]: _decode(b1, b0)
                for nid, (b1, b0) in self._state.items()}

    def reset(self, x_init: bool = False) -> None:
        """Reset all state elements to 0 (or X) and restart the cycle counter."""
        self._refresh()
        self._init_state(x_init)
        self.cycle = 0
        self.trace.clear()

    def peek(self, net_name: str) -> int:
        """Current stored value of a state net (flip-flop output)."""
        nid = self._compiled.net_id.get(net_name)
        if nid is None or nid not in self._state:
            return LOGIC_X
        return _decode(*self._state[nid])

    def poke(self, net_name: str, value: int) -> None:
        """Force a state net to a value (debug-style state manipulation)."""
        nid = self._compiled.net_id.get(net_name)
        if nid is None or nid not in self._state:
            raise KeyError(f"{net_name!r} is not a state net of "
                           f"{self.netlist.name!r}")
        self._state[nid] = encode(value, "net", net_name, self.netlist.name)

    # ------------------------------------------------------------------ #
    # clocking
    # ------------------------------------------------------------------ #
    def step(self, inputs: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Advance one clock cycle; returns the full net-value map of the cycle."""
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

        # Next state straight from the result planes (no name round-trip).
        nxt: Dict[int, Tuple[int, int]] = {}
        seq_fanin = compiled.seq_fanin
        seq_fanout = compiled.seq_fanout
        for i, fn in enumerate(seq_program):
            flat: List[int] = []
            for nid in seq_fanin[i]:
                if nid >= 0:
                    flat.append(p1[nid])
                    flat.append(p0[nid])
                else:
                    flat.append(0)
                    flat.append(0)
            out = fn(1, *flat)
            for nid in seq_fanout[i]:
                if nid >= 0:
                    t = tied[nid]
                    nxt[nid] = (_ENCODE[t] if t is not None
                                else (out[0], out[1]))
        self._state = nxt
        self.cycle += 1

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
