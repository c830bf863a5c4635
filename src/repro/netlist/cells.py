"""Standard-cell library with three-valued (0/1/X) semantics.

Every cell used by the SoC generators, the scan-insertion pass and the ATPG
engine is declared here, once: one small expression per output over the
cell's input pins, written with ``~ & | ^``, the constants ``0``/``1`` and
two primitives —

* ``mux(S, D0, D1)``: the consensus 2:1 multiplexer (an X select with equal
  definite legs gives that value);
* ``gate(EN, D)``: ``EN=0`` gives 0, ``EN=X`` gives X, ``EN=1`` gives ``D``
  (the active-low reset of DFFR/SDFFR).

From that declaration two straight-line Python functions per cell are
generated, once per process, on first use:

* the dual-rail **plane** form ``m, a1, a0, b1, b0, ... -> (y1, y0, ...)``:
  bit *i* of ``a1`` means "A is 1 under pattern *i*", bit *i* of ``a0``
  "A is 0", neither bit X; ``m`` is the all-ones mask of the window;
* the two-valued **word** form ``m, a, b, ... -> (y, ...)``, each output
  masked by ``m``.

:attr:`Cell.scalar` (and the simulators' ``scalar3_program``) is the
width-1 plane form behind the :data:`PLANE_ENCODING` bridge, and the
gate-family facts PODEM and fault collapsing rely on
(:attr:`Cell.control`) are derived from it as well.

Adding a cell is one declaration below; the exhaustive form test in
``tests/test_netlist_cells.py`` picks it up and asks for its two-valued
reference.

Sequential cells (DFF variants, mux-scan flip-flops) declare their next
state and carry pin-role metadata (`clock`, `data`, `scan_in`,
`scan_enable`, `reset`, ...) used by the scan chain tracer, the sequential
simulator and the on-line untestability analyses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# Three-valued logic encoding.  Chosen as small ints so hot simulation loops
# can use them directly as list indices.
LOGIC_0 = 0
LOGIC_1 = 1
LOGIC_X = 2

#: The width-1 plane encoding of a logic value: value -> (p1, p0).  The
#: single source of truth shared by every scalar bridge (:attr:`Cell.scalar`,
#: PODEM's five-valued machine, the sequential simulator's name-keyed edge).
PLANE_ENCODING = {LOGIC_0: (0, 1), LOGIC_1: (1, 0), LOGIC_X: (0, 0)}


def encode(value: int, kind: str, site: str, owner: str) -> Tuple[int, int]:
    """The width-1 plane pair of ``value``; anything but 0/1/X raises.

    ``kind``/``site``/``owner`` name where the value was applied (``"net",
    "a", <netlist>`` or ``"mission input", "rst_n", <netlist>``) for the
    error message.
    """
    try:
        return PLANE_ENCODING[value]
    except (KeyError, TypeError):
        raise ValueError(f"invalid logic value {value!r} on {kind} "
                         f"{site!r} of {owner}") from None


# --------------------------------------------------------------------- #
# form generation: the declaration's expressions compiled to straight-line
# Python, one function per form.  A form turns each expression node into
# the source text of its value(s); subexpressions a rule reads twice are
# first bound to locals.
# --------------------------------------------------------------------- #
def _is_atom(text: str) -> bool:
    return text.isidentifier() or text == "0"


class _PlaneForm:
    """Dual-rail source text: every value is a (1-plane, 0-plane) pair."""

    kind = "plane"

    def __init__(self, inputs: Tuple[str, ...]) -> None:
        self.params = [f"i{k}_{p}" for k in range(len(inputs)) for p in (1, 0)]
        self.names = {pin: (f"i{k}_1", f"i{k}_0")
                      for k, pin in enumerate(inputs)}
        self.lines: List[str] = []

    def bind(self, x):
        if all(_is_atom(p) for p in x):
            return x
        t = len(self.lines) // 2
        self.lines += [f"t{t}_1 = {x[0]}", f"t{t}_0 = {x[1]}"]
        return (f"t{t}_1", f"t{t}_0")

    def const(self, value: int):
        return ("m", "0") if value else ("0", "m")

    def invert(self, x):
        return (x[1], x[0])

    def and_(self, xs):
        return (_join(" & ", [x[0] for x in xs]), _join(" | ", [x[1] for x in xs]))

    def or_(self, xs):
        return (_join(" | ", [x[0] for x in xs]), _join(" & ", [x[1] for x in xs]))

    def xor(self, xs):
        acc = xs[0]
        for y in xs[1:]:
            (a1, a0), (b1, b0) = self.bind(acc), self.bind(y)
            acc = (f"({a1} & {b0} | {a0} & {b1})", f"({a1} & {b1} | {a0} & {b0})")
        return acc

    def mux(self, s, d0, d1):
        (s1, s0), (a1, a0), (b1, b0) = self.bind(s), self.bind(d0), self.bind(d1)
        return (f"({s0} & {a1} | {s1} & {b1} | {a1} & {b1})",
                f"({s0} & {a0} | {s1} & {b0} | {a0} & {b0})")

    def gate(self, en, d):
        e1, e0 = self.bind(en)
        return (f"({e1} & {d[0]})", f"({e0} | {e1} & {d[1]})")

    def output(self, x) -> str:
        return f"{x[0]}, {x[1]}"


class _WordForm:
    """Two-valued source text over pattern words (``~`` is fixed by ``& m``)."""

    kind = "word"

    def __init__(self, inputs: Tuple[str, ...]) -> None:
        self.params = [f"i{k}" for k in range(len(inputs))]
        self.names = dict(zip(inputs, self.params))
        self.lines: List[str] = []

    def bind(self, x):
        if _is_atom(x):
            return x
        t = len(self.lines)
        self.lines.append(f"t{t} = {x}")
        return f"t{t}"

    def const(self, value: int):
        return "m" if value else "0"

    def invert(self, x):
        return f"~{x}"

    def and_(self, xs):
        return _join(" & ", xs)

    def or_(self, xs):
        return _join(" | ", xs)

    def xor(self, xs):
        return _join(" ^ ", xs)

    def mux(self, s, d0, d1):
        s = self.bind(s)
        return f"({s} & {d1} | ~{s} & {d0})"

    def gate(self, en, d):
        return f"({en} & {d})"

    def output(self, x) -> str:
        return f"{x} & m"


def _join(op: str, parts: List[str]) -> str:
    return parts[0] if len(parts) == 1 else "(" + op.join(parts) + ")"


_CHAINS = {ast.BitAnd: "and_", ast.BitOr: "or_", ast.BitXor: "xor"}
_PRIMITIVES = {"mux": 3, "gate": 2}


def _operands(node: ast.expr, op: type) -> List[ast.expr]:
    """Flatten an associative chain (``A & B & C``) into its operands."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, op):
        return _operands(node.left, op) + _operands(node.right, op)
    return [node]


def _walk(form, node: ast.expr):
    if isinstance(node, ast.Name) and node.id in form.names:
        return form.names[node.id]
    if isinstance(node, ast.Constant) and node.value in (0, 1):
        return form.const(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
        return form.invert(_walk(form, node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _CHAINS:
        op = type(node.op)
        return getattr(form, _CHAINS[op])(
            [_walk(form, n) for n in _operands(node, op)])
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and _PRIMITIVES.get(node.func.id) == len(node.args)
            and not node.keywords):
        return getattr(form, node.func.id)(*[_walk(form, a) for a in node.args])
    raise ValueError(f"unsupported cell logic {ast.unparse(node)!r}")


def _parse_logic(logic: str) -> List[Tuple[str, ast.expr]]:
    """``"S = A ^ B; CO = A & B"`` -> [(output, expression), ...]."""
    outputs = []
    for stmt in ast.parse(logic).body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            raise ValueError(f"cell logic must be `OUT = expr` statements: "
                             f"{ast.unparse(stmt)!r}")
        outputs.append((stmt.targets[0].id, stmt.value))
    return outputs


def _generate(cell: "Cell", form_type) -> Callable:
    form = form_type(cell.inputs)
    outs = [form.output(_walk(form, expr)) for _, expr in _parse_logic(cell.logic)]
    fname = f"{cell.name}_{form.kind}"
    lines = [f"def {fname}({', '.join(['m'] + form.params)}):"]
    lines += [f"    {line}" for line in form.lines]
    lines.append(f"    return ({', '.join(outs)},)")
    namespace: Dict[str, Callable] = {}
    exec(compile("\n".join(lines), f"<{fname}>", "exec"), namespace)
    return namespace[fname]


@dataclass(frozen=True)
class Cell:
    """A library cell.

    Parameters
    ----------
    name:
        Library cell name, e.g. ``"NAND2"``.
    inputs / outputs:
        Ordered pin names.
    logic:
        The declaration: ``OUT = expression`` statements over the input
        pins, one per output in order (see the module docstring).  For a
        sequential cell it declares the *next state* of its state output;
        the output itself simply reflects the stored state, handled by the
        sequential simulator.
    sequential:
        True for state-holding cells.
    roles:
        Pin-role metadata for sequential cells: maps role name
        (``"clock"``, ``"data"``, ``"reset"``, ``"reset_active"``,
        ``"scan_in"``, ``"scan_enable"``, ``"scan_enable_active"``,
        ``"state_output"``, ``"scan_out"``, ``"debug_in"``, ``"debug_enable"``,
        ``"debug_out"``) to a pin name (or, for the ``*_active`` roles, to a
        logic value).
    """

    name: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    logic: str
    sequential: bool = False
    roles: Dict[str, object] = field(default_factory=dict)
    description: str = ""

    @property
    def pins(self) -> Tuple[str, ...]:
        return self.inputs + self.outputs

    def is_input(self, pin: str) -> bool:
        return pin in self.inputs

    def is_output(self, pin: str) -> bool:
        return pin in self.outputs

    def role_pin(self, role: str) -> Optional[str]:
        """Return the pin playing ``role``, or None."""
        value = self.roles.get(role)
        return value if isinstance(value, str) else None

    def role_value(self, role: str) -> Optional[int]:
        """Return the logic value associated with ``role`` (for *_active roles)."""
        value = self.roles.get(role)
        return value if isinstance(value, int) else None

    @cached_property
    def plane(self) -> Callable:
        """The generated dual-rail form ``m, a1, a0, ... -> (y1, y0, ...)``."""
        return _generate(self, _PlaneForm)

    @cached_property
    def word(self) -> Callable:
        """The generated two-valued form ``m, a, ... -> (y, ...)``."""
        return _generate(self, _WordForm)

    @cached_property
    def scalar(self) -> Callable:
        """The width-1 plane form over positional logic values: one logic
        value per input in, one per output out (no value check)."""
        plane, encoding = self.plane, PLANE_ENCODING

        def scalar(*vals):
            flat = []
            for v in vals:
                d = encoding[v]
                flat.append(d[0])
                flat.append(d[1])
            out = plane(1, *flat)
            return tuple(
                LOGIC_1 if out[2 * j] else (LOGIC_0 if out[2 * j + 1] else LOGIC_X)
                for j in range(len(out) // 2))

        return scalar

    @cached_property
    def control(self) -> Optional[Tuple[Optional[int], bool]]:
        """``(controlling value, inversion)`` of a simple gate, else None.

        A combinational single-output cell with at least two inputs has
        controlling value ``c`` when each input at ``c``, with the rest X,
        gives the same definite output ``y``; its inversion is ``y != c``.
        A single-input cell gets ``(None, inversion)``.  PODEM's backtrace
        and stuck-at collapsing read these facts.
        """
        n = len(self.inputs)
        if self.sequential or len(self.outputs) != 1 or n == 0:
            return None
        if n == 1:
            return (None, self.scalar(LOGIC_0)[0] == LOGIC_1)
        for c in (LOGIC_0, LOGIC_1):
            ys = {self.scalar(*[c if j == k else LOGIC_X for j in range(n)])[0]
                  for k in range(n)}
            if len(ys) == 1 and LOGIC_X not in ys:
                return (c, ys.pop() != c)
        return None

    def __reduce__(self):
        # Cells cache their generated functions, which cannot be pickled.
        # Standard-library cells — the only ones the generators emit — are
        # singletons, so they pickle as a name lookup; this is what lets
        # whole netlists ship to sharded-simulation worker processes.
        lib = _STANDARD_LIBRARY
        if lib is not None and self.name in lib and lib.get(self.name) is self:
            return (_standard_cell, (self.name,))
        return super().__reduce__()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        kind = "seq" if self.sequential else "comb"
        return f"Cell({self.name}, {kind}, in={self.inputs}, out={self.outputs})"


def _standard_cell(name: str) -> "Cell":
    """Pickle hook: resolve a standard-library cell by name."""
    return standard_library().get(name)


class Library:
    """A named collection of :class:`Cell` definitions."""

    def __init__(self, name: str = "generic") -> None:
        self.name = name
        self._cells: Dict[str, Cell] = {}

    def add(self, cell: Cell) -> Cell:
        if cell.name in self._cells:
            raise ValueError(
                f"cell {cell.name!r} already defined in "
                f"library {self.name!r}")
        self._cells[cell.name] = cell
        return cell

    def get(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(
                f"cell {name!r} not found in library {self.name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __iter__(self) -> Iterable[Cell]:
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    def cell_names(self) -> Tuple[str, ...]:
        return tuple(self._cells)

    def __reduce__(self):
        if self is _STANDARD_LIBRARY:
            return (standard_library, ())
        return super().__reduce__()


def _declare(lib: Library, name: str, inputs: str, logic: str,
             description: str, roles: Optional[Dict[str, object]] = None) -> None:
    """Add one cell: its outputs are the targets of ``logic``, and a cell
    with pin roles is sequential."""
    outputs = tuple(out for out, _ in _parse_logic(logic))
    lib.add(Cell(name=name, inputs=tuple(inputs.split()), outputs=outputs,
                 logic=logic, sequential=roles is not None,
                 roles=roles or {}, description=description))


def _make_combinational_cells(lib: Library) -> None:
    _declare(lib, "TIE0", "", "Y = 0", "Constant logic 0 driver")
    _declare(lib, "TIE1", "", "Y = 1", "Constant logic 1 driver")
    _declare(lib, "BUF", "A", "Y = A", "Buffer")
    _declare(lib, "INV", "A", "Y = ~A", "Inverter")
    for arity in (2, 3, 4):
        pins = "ABCD"[:arity]
        conj, disj = " & ".join(pins), " | ".join(pins)
        _declare(lib, f"AND{arity}", " ".join(pins), f"Y = {conj}",
                 f"{arity}-input AND")
        _declare(lib, f"NAND{arity}", " ".join(pins), f"Y = ~({conj})",
                 f"{arity}-input NAND")
        _declare(lib, f"OR{arity}", " ".join(pins), f"Y = {disj}",
                 f"{arity}-input OR")
        _declare(lib, f"NOR{arity}", " ".join(pins), f"Y = ~({disj})",
                 f"{arity}-input NOR")
    _declare(lib, "XOR2", "A B", "Y = A ^ B", "2-input XOR")
    _declare(lib, "XNOR2", "A B", "Y = ~(A ^ B)", "2-input XNOR")
    _declare(lib, "MUX2", "D0 D1 S", "Y = mux(S, D0, D1)",
             "2:1 multiplexer, S=0 selects D0")
    _declare(lib, "AO21", "A B C", "Y = A & B | C", "AND-OR: Y = (A&B)|C")
    _declare(lib, "OA21", "A B C", "Y = (A | B) & C", "OR-AND: Y = (A|B)&C")
    _declare(lib, "AOI21", "A B C", "Y = ~(A & B | C)", "AND-OR-invert")
    _declare(lib, "OAI21", "A B C", "Y = ~((A | B) & C)", "OR-AND-invert")
    _declare(lib, "HA", "A B", "S = A ^ B; CO = A & B", "Half adder")
    _declare(lib, "FA", "A B CI", "S = A ^ B ^ CI; CO = A & B | A & CI | B & CI",
             "Full adder")


def _make_sequential_cells(lib: Library) -> None:
    _declare(lib, "DFF", "D CK", "Q = D", "Positive-edge D flip-flop",
             roles={"clock": "CK", "data": "D", "state_output": "Q"})
    # Active-low asynchronous reset: RN=0 forces the state to 0.
    _declare(lib, "DFFR", "D CK RN", "Q = gate(RN, D)",
             "D flip-flop with active-low asynchronous reset",
             roles={"clock": "CK", "data": "D", "reset": "RN",
                    "reset_active": LOGIC_0, "state_output": "Q"})
    # Mux-scan flip-flop: SE=1 captures SI, SE=0 captures D (Fig. 2 of the paper).
    _declare(lib, "SDFF", "D SI SE CK", "Q = mux(SE, D, SI)",
             "Mux-scan D flip-flop (scan shifts when SE=1)",
             roles={"clock": "CK", "data": "D", "scan_in": "SI",
                    "scan_enable": "SE", "scan_enable_active": LOGIC_1,
                    "state_output": "Q", "scan_out": "Q"})
    _declare(lib, "SDFFR", "D SI SE CK RN", "Q = gate(RN, mux(SE, D, SI))",
             "Mux-scan D flip-flop with active-low reset",
             roles={"clock": "CK", "data": "D", "scan_in": "SI",
                    "scan_enable": "SE", "scan_enable_active": LOGIC_1,
                    "reset": "RN", "reset_active": LOGIC_0,
                    "state_output": "Q", "scan_out": "Q"})
    # Debug-controllable flip-flop (Fig. 4): DE=1 loads the debug input DI.
    _declare(lib, "DBGFF", "D DI DE CK", "Q = mux(DE, D, DI)",
             "D flip-flop with debug-override mux (Fig. 4 of the paper)",
             roles={"clock": "CK", "data": "D", "debug_in": "DI",
                    "debug_enable": "DE", "debug_enable_active": LOGIC_1,
                    "state_output": "Q"})


_STANDARD_LIBRARY: Optional[Library] = None


def standard_library() -> Library:
    """Return the shared standard-cell library (built once, cached)."""
    global _STANDARD_LIBRARY
    if _STANDARD_LIBRARY is None:
        lib = Library("repro_std")
        _make_combinational_cells(lib)
        _make_sequential_cells(lib)
        _STANDARD_LIBRARY = lib
    return _STANDARD_LIBRARY
