"""Levelised three-valued simulation over the compiled netlist IR.

The execution model is *two bit-planes over Python ints*: the value of a net
across ``W`` patterns is a pair of arbitrary-width integers ``(p1, p0)``
where bit *i* of ``p1`` means "1 under pattern *i*", bit *i* of ``p0`` means
"0 under pattern *i*", and neither bit set means X.  Gate evaluation is pure
bitwise arithmetic (AND of the 1-planes, OR of the 0-planes, ...), so one
pass over the level-ordered op arrays of a
:class:`~repro.netlist.compiled.CompiledNetlist` simulates up to a machine
word of three-valued patterns at once.  A single pattern is simply the
width-1 case.

The per-cell plane functions are built once at module import
(:data:`_PLANE_OPS` / :data:`_SEQ_PLANE_OPS`); the per-op program for a
netlist is resolved once per *compiled netlist* (not per simulator) through
:meth:`CompiledNetlist.extension`.  Cells outside the standard library fall
back to a per-bit truth-table evaluation of their ``eval_fn``.

:class:`CombinationalSimulator` keeps its historical API — dict-in /
dict-out, ``order`` and ``state_nets`` attributes — while the fault
simulators use the integer-plane internals directly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.netlist.cells import LOGIC_0, LOGIC_1, LOGIC_X
from repro.netlist.compiled import CompiledNetlist, get_compiled
from repro.netlist.module import Netlist


# --------------------------------------------------------------------- #
# plane algebra: value planes are interleaved flat arguments
# (a1, a0, b1, b0, ...); results are flat (y1, y0[, z1, z0...]) tuples.
# --------------------------------------------------------------------- #
def _plane_buf(m, a1, a0):
    return (a1, a0)


def _plane_inv(m, a1, a0):
    return (a0, a1)


def _make_and(invert: bool):
    def fn(m, *flat):
        r1, r0 = m, 0
        it = iter(flat)
        for a1 in it:
            r1 &= a1
            r0 |= next(it)
        return (r0, r1) if invert else (r1, r0)
    return fn


def _make_or(invert: bool):
    def fn(m, *flat):
        r1, r0 = 0, m
        it = iter(flat)
        for a1 in it:
            r1 |= a1
            r0 &= next(it)
        return (r0, r1) if invert else (r1, r0)
    return fn


def _xor2(a1, a0, b1, b0):
    return ((a1 & b0) | (a0 & b1), (a1 & b1) | (a0 & b0))


def _plane_xor2(m, a1, a0, b1, b0):
    return _xor2(a1, a0, b1, b0)


def _plane_xnor2(m, a1, a0, b1, b0):
    y1, y0 = _xor2(a1, a0, b1, b0)
    return (y0, y1)


def _mux(d01, d00, d11, d10, s1, s0):
    """v_mux(sel, d0, d1) on planes: defined when the selected leg is
    definite, or when the select is X but both legs agree definitely."""
    return ((s0 & d01) | (s1 & d11) | (d01 & d11),
            (s0 & d00) | (s1 & d10) | (d00 & d10))


def _plane_mux2(m, d01, d00, d11, d10, s1, s0):
    return _mux(d01, d00, d11, d10, s1, s0)


def _plane_ao21(m, a1, a0, b1, b0, c1, c0):
    return ((a1 & b1) | c1, (a0 | b0) & c0)


def _plane_oa21(m, a1, a0, b1, b0, c1, c0):
    return ((a1 | b1) & c1, (a0 & b0) | c0)


def _plane_aoi21(m, a1, a0, b1, b0, c1, c0):
    return ((a0 | b0) & c0, (a1 & b1) | c1)


def _plane_oai21(m, a1, a0, b1, b0, c1, c0):
    return ((a0 & b0) | c0, (a1 | b1) & c1)


def _plane_ha(m, a1, a0, b1, b0):
    s1, s0 = _xor2(a1, a0, b1, b0)
    return (s1, s0, a1 & b1, a0 | b0)


def _plane_fa(m, a1, a0, b1, b0, c1, c0):
    t1, t0 = _xor2(a1, a0, b1, b0)
    s1, s0 = _xor2(t1, t0, c1, c0)
    co1 = (a1 & b1) | (a1 & c1) | (b1 & c1)
    co0 = (a0 & b0) | (a0 & c0) | (b0 & c0)
    return (s1, s0, co1, co0)


_PLANE_OPS: Dict[str, Callable] = {
    "TIE0": lambda m: (0, m),
    "TIE1": lambda m: (m, 0),
    "BUF": _plane_buf,
    "INV": _plane_inv,
    "XOR2": _plane_xor2,
    "XNOR2": _plane_xnor2,
    "MUX2": _plane_mux2,
    "AO21": _plane_ao21,
    "OA21": _plane_oa21,
    "AOI21": _plane_aoi21,
    "OAI21": _plane_oai21,
    "HA": _plane_ha,
    "FA": _plane_fa,
}
for _arity in (2, 3, 4):
    _PLANE_OPS[f"AND{_arity}"] = _make_and(invert=False)
    _PLANE_OPS[f"NAND{_arity}"] = _make_and(invert=True)
    _PLANE_OPS[f"OR{_arity}"] = _make_or(invert=False)
    _PLANE_OPS[f"NOR{_arity}"] = _make_or(invert=True)


def _seq_dff(m, d1, d0, ck1, ck0):
    return (d1, d0)


def _seq_dffr(m, d1, d0, ck1, ck0, rn1, rn0):
    return (rn1 & d1, rn0 | (rn1 & d0))


def _seq_sdff(m, d1, d0, si1, si0, se1, se0, ck1, ck0):
    return _mux(d1, d0, si1, si0, se1, se0)


def _seq_sdffr(m, d1, d0, si1, si0, se1, se0, ck1, ck0, rn1, rn0):
    t1, t0 = _mux(d1, d0, si1, si0, se1, se0)
    return (rn1 & t1, rn0 | (rn1 & t0))


def _seq_dbgff(m, d1, d0, di1, di0, de1, de0, ck1, ck0):
    return _mux(d1, d0, di1, di0, de1, de0)


#: Next-state plane functions per sequential cell (inputs in cell order).
_SEQ_PLANE_OPS: Dict[str, Callable] = {
    "DFF": _seq_dff,
    "DFFR": _seq_dffr,
    "SDFF": _seq_sdff,
    "SDFFR": _seq_sdffr,
    "DBGFF": _seq_dbgff,
}


# --------------------------------------------------------------------- #
# truth-table fallback for cells without a hand-written plane function
# --------------------------------------------------------------------- #
#: The width-1 plane encoding of a logic value: value -> (p1, p0).  The
#: single source of truth shared by the scalar bridges (PODEM's five-valued
#: machine, the sequential simulator's state planes).
PLANE_ENCODING = {LOGIC_0: (0, 1), LOGIC_1: (1, 0), LOGIC_X: (0, 0)}
_DECODE = PLANE_ENCODING


def _fallback_plane_fn(cell, output_names: Tuple[str, ...]) -> Callable:
    """Per-bit evaluation of ``cell.eval_fn`` lifted to the plane layout."""
    inputs = cell.inputs
    n_out = len(output_names)

    def fn(m, *flat):
        width = m.bit_length()
        res = [0] * (2 * n_out)
        for b in range(width):
            bit = 1 << b
            values = {}
            for k, port in enumerate(inputs):
                if flat[2 * k] & bit:
                    values[port] = LOGIC_1
                elif flat[2 * k + 1] & bit:
                    values[port] = LOGIC_0
                else:
                    values[port] = LOGIC_X
            out = cell.evaluate(values)
            for j, port in enumerate(output_names):
                v = out.get(port, LOGIC_X)
                if v == LOGIC_1:
                    res[2 * j] |= bit
                elif v == LOGIC_0:
                    res[2 * j + 1] |= bit
        return tuple(res)

    return fn


def _build_plane_program(compiled: CompiledNetlist):
    """Per-op / per-seq plane evaluators (memoised on the compiled netlist)."""
    comb = []
    for cell in compiled.op_cell:
        fn = _PLANE_OPS.get(cell.name)
        if fn is None:
            fn = _fallback_plane_fn(cell, cell.outputs)
        comb.append(fn)
    seq = []
    for cell in compiled.seq_cell:
        fn = _SEQ_PLANE_OPS.get(cell.name)
        if fn is None:
            fn = _fallback_plane_fn(cell, ("__next__",))
        seq.append(fn)
    return comb, seq


def plane_program(compiled: CompiledNetlist):
    """The (combinational, sequential) plane-evaluator arrays of a netlist."""
    return compiled.extension("plane_program", _build_plane_program)


def run_plane_ops(compiled: CompiledNetlist, program, p1: List[int],
                  p0: List[int], mask: int, frozen) -> None:
    """One levelized pass over all combinational ops, in place.

    ``frozen`` flags (bytearray indexed by net ID) mark nets whose value
    must not be overwritten: ties, overrides and forced fault sites.
    """
    op_fanin = compiled.op_fanin
    op_fanout = compiled.op_fanout
    for i, fn in enumerate(program):
        args = []
        for nid in op_fanin[i]:
            if nid >= 0:
                args.append(p1[nid])
                args.append(p0[nid])
            else:
                args.append(0)
                args.append(0)
        out = fn(mask, *args)
        for pos, nid in enumerate(op_fanout[i]):
            if nid >= 0 and not frozen[nid]:
                p1[nid] = out[2 * pos]
                p0[nid] = out[2 * pos + 1]


def scalar3_program(compiled: CompiledNetlist):
    """Per-op scalar three-valued evaluators derived from the plane program.

    Used by PODEM's five-valued simulation: each evaluator takes the input
    values positionally (``LOGIC_0/1/X``) and returns one value per output.
    """
    def build(compiled: CompiledNetlist):
        comb_planes, _ = plane_program(compiled)
        decode = _DECODE

        def scalarize(fn):
            def sfn(*vals):
                flat = []
                for v in vals:
                    d = decode[v]
                    flat.append(d[0])
                    flat.append(d[1])
                out = fn(1, *flat)
                return tuple(
                    LOGIC_1 if out[2 * j] else (LOGIC_0 if out[2 * j + 1]
                                                else LOGIC_X)
                    for j in range(len(out) // 2))
            return sfn

        return [scalarize(fn) for fn in comb_planes]

    return compiled.extension("scalar3_program", build)


class CombinationalSimulator:
    """Evaluates the combinational network of a netlist.

    The compiled form is fetched once at construction and revalidated on
    each :meth:`evaluate` call (a cheap fingerprint check), so repeated
    evaluations reuse one shared :class:`CompiledNetlist` — as do every
    other simulator and ATPG engine targeting the same netlist.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self._compiled = get_compiled(netlist)

    def _refresh(self) -> CompiledNetlist:
        compiled = get_compiled(self.netlist)
        self._compiled = compiled
        return compiled

    @property
    def compiled(self) -> CompiledNetlist:
        return self._compiled

    @property
    def order(self) -> list:
        """Topological order of the combinational instances (shared list —
        treat as read-only)."""
        return self._compiled.instances

    @property
    def state_nets(self) -> list:
        """Net names driven by sequential cells (the pseudo-primary inputs)."""
        names = self._compiled.net_names
        return [names[nid] for nid in self._compiled.state_net_ids]

    # ------------------------------------------------------------------ #
    def evaluate(self, inputs: Mapping[str, int],
                 state: Optional[Mapping[str, int]] = None,
                 overrides: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Compute all net values.

        Parameters
        ----------
        inputs:
            Values for primary-input nets (missing inputs default to X).
        state:
            Values for sequential-cell output nets (missing default to X).
        overrides:
            Net values forced regardless of their driver — used for fault
            injection and for what-if analyses.  Overrides take precedence
            over ties.
        """
        compiled = self._refresh()
        n = compiled.n_nets
        net_id = compiled.net_id
        p1 = [0] * n
        p0 = [0] * n
        frozen = bytearray(n)
        tied = compiled.tied

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
                v = inputs.get(compiled.net_names[nid], LOGIC_X)
                p1[nid] = 1 if v == LOGIC_1 else 0
                p0[nid] = 1 if v == LOGIC_0 else 0

        if state:
            for name, value in state.items():
                nid = net_id.get(name)
                if nid is not None and tied[nid] is None:
                    p1[nid] = 1 if value == LOGIC_1 else 0
                    p0[nid] = 1 if value == LOGIC_0 else 0

        extra: Dict[str, int] = {}
        if overrides:
            for name, value in overrides.items():
                nid = net_id.get(name)
                if nid is None:
                    extra[name] = value
                    continue
                p1[nid] = 1 if value == LOGIC_1 else 0
                p0[nid] = 1 if value == LOGIC_0 else 0
                frozen[nid] = 1

        program, _ = plane_program(compiled)
        run_plane_ops(compiled, program, p1, p0, 1, frozen)

        values = {
            name: (LOGIC_1 if p1[nid] else (LOGIC_0 if p0[nid] else LOGIC_X))
            for nid, name in enumerate(compiled.net_names)
        }
        if extra:
            values.update(extra)
        return values

    def output_values(self, values: Mapping[str, int],
                      observable_only: bool = True) -> Dict[str, int]:
        """Extract the module output-port values from a full value map."""
        ports = (self.netlist.observable_output_ports() if observable_only
                 else self.netlist.output_ports())
        return {p: values[p] for p in ports}

    def next_state(self, values: Mapping[str, int]) -> Dict[str, int]:
        """Compute the next value of every sequential cell's output net.

        The keys of the returned dict are the *output net names* of the
        sequential instances, so the result can be fed back as ``state`` in
        the next :meth:`evaluate` call.
        """
        compiled = self._refresh()
        _, seq_program = plane_program(compiled)
        names = compiled.net_names
        tied = compiled.tied
        decode = _DECODE
        nxt: Dict[str, int] = {}
        for i, fn in enumerate(seq_program):
            flat = []
            for nid in compiled.seq_fanin[i]:
                d = decode[values[names[nid]] if nid >= 0 else LOGIC_X]
                flat.append(d[0])
                flat.append(d[1])
            out = fn(1, *flat)
            new_value = (LOGIC_1 if out[0] else (LOGIC_0 if out[1] else LOGIC_X))
            for nid in compiled.seq_fanout[i]:
                if nid >= 0:
                    if tied[nid] is not None:
                        nxt[names[nid]] = tied[nid]
                    else:
                        nxt[names[nid]] = new_value
        return nxt


#: Sequential input-pin roles through which a fault effect is captured into
#: architectural state in mission mode.  Scan (SI/SE) and debug (DI/DE) pins
#: are excluded: nothing reads what they would capture once the tester and
#: the debugger are gone.  Clock and reset pins stay observable — a fault
#: effect reaching them stops or resets a mission register, which is very
#: much visible in the field.
MISSION_CAPTURE_ROLES = ("data", "reset", "clock")


def observed_state_input_nets(inst, roles=None):
    """Net names of ``inst``'s input pins that count as observation points.

    ``roles=None`` observes every input pin (off-line view: the scan chain
    makes all captured values readable).  With an explicit role tuple only
    the pins playing one of those roles on the cell are observed.
    """
    if roles is None:
        return [pin.net.name for pin in inst.input_pins() if pin.net is not None]
    allowed = {inst.cell.role_pin(role) for role in roles}
    allowed.discard(None)
    return [pin.net.name for pin in inst.input_pins()
            if pin.net is not None and pin.port in allowed]
