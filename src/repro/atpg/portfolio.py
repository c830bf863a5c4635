"""The ATPG portfolio: two test-generation backends + compaction.

Easy faults want the cheap classic PODEM search; aborted faults want a
complete (if slower) second tier that can turn AU into a real verdict.
:data:`ATPG_BACKENDS` is the fixed name -> backend table of the two
strategies.  A backend's ``start(netlist, ...)`` returns a per-run
generator with ``generate(fault)`` (primary search) and
``escalate(fault)`` (second tier for aborted faults, or ``None``):

``podem``
    the classic engine (:class:`~repro.atpg.podem.Podem`), unchanged:
    the serial reference the other backend is checked against.
``dalg``
    PODEM primary plus a :class:`~repro.atpg.dalg.DAlg` escalation tier
    that re-attacks aborted faults with the five-valued D-algorithm,
    turning AU into proven UU (or DT) where possible.

Both backends are *per-fault deterministic*: the verdict for a fault
depends only on (netlist, fault), never on batch order — the
invariant that keeps serial and pooled classification byte-identical.

:func:`compact_patterns` is the portfolio's second half: the patterns the
search emits are fault-simulated (event-driven word walks) as they are
produced, merged where compatible cubes provably keep their union of
detections, dropped when covered, and re-ordered steepest-coverage-first —
so pattern counts drop as coverage rises.  The compaction trace lands in
the classification report.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.atpg.dalg import DAlg
from repro.atpg.podem import Podem, PodemResult, PodemStatus
from repro.faults.models import Fault
from repro.netlist.module import Netlist
from repro.simulation.parallel import ParallelPatternSimulator
from repro.utils.bitvec import mask

#: Default backend name (the serial reference engine).
DEFAULT_ATPG_BACKEND = "podem"

#: Escalation tier budget multiplier (the D-algorithm gets more rope than
#: the primary search that already gave up).
_ESCALATION_BUDGET_FACTOR = 4


# --------------------------------------------------------------------- #
# per-run generators
# --------------------------------------------------------------------- #
class _PodemRun:
    """One classification run: PODEM search, no escalation tier."""

    def __init__(self, netlist: Netlist, backtrack_limit: int,
                 static) -> None:
        self.generator = Podem(netlist, backtrack_limit=backtrack_limit,
                               static=static)

    def generate(self, fault: Fault) -> PodemResult:
        return self.generator.generate(fault)

    def escalate(self, fault: Fault) -> Optional[PodemResult]:
        """Second-tier re-attack of an aborted fault; ``None`` means the
        escalation could not improve on the primary verdict."""
        return None

    @property
    def learned_skips(self) -> int:
        """Decision branches skipped via learned implications so far."""
        return self.generator.learned_skips


class _DalgRun(_PodemRun):
    """PODEM primary with a lazily-built D-algorithm escalation tier."""

    def __init__(self, netlist: Netlist, backtrack_limit: int,
                 static) -> None:
        super().__init__(netlist, backtrack_limit, static)
        self._netlist = netlist
        self._limit = backtrack_limit
        self._static = static
        self._dalg: Optional[DAlg] = None

    def escalate(self, fault: Fault) -> Optional[PodemResult]:
        if self._dalg is None:
            self._dalg = DAlg(
                self._netlist,
                backtrack_limit=self._limit * _ESCALATION_BUDGET_FACTOR,
                static=self._static)
        result = self._dalg.generate(fault)
        if result.status is PodemStatus.ABORTED:
            return None
        return result


# --------------------------------------------------------------------- #
# the backends
# --------------------------------------------------------------------- #
class PodemBackend:
    """The classic engine, unchanged — the serial reference."""

    #: Table key (``repro analyze --atpg-backend <name>``).
    name = "podem"
    #: One-line description for ``repro backends``.
    description = "classic PODEM search (the reference engine)"
    #: Whether ``escalate`` can improve aborted faults — when true the
    #: classifier runs a second pass over the merged abort frontier.
    escalates = False

    def start(self, netlist: Netlist, *, backtrack_limit: int = 200,
              static=None, seed: Optional[int] = None) -> _PodemRun:
        """Bind the backend to a netlist for one classification run.

        ``seed`` is accepted for callers that still pass one; neither
        backend draws random numbers, so it is ignored."""
        return _PodemRun(netlist, backtrack_limit, static)


class DalgBackend(PodemBackend):
    """PODEM primary + five-valued D-algorithm escalation of aborts."""

    name = "dalg"
    description = ("PODEM primary search, aborted faults escalated to the "
                   "five-valued D-algorithm (AU becomes proven UU/DT where "
                   "the search completes)")
    escalates = True

    def start(self, netlist: Netlist, *, backtrack_limit: int = 200,
              static=None, seed: Optional[int] = None) -> _DalgRun:
        return _DalgRun(netlist, backtrack_limit, static)


#: Backend name -> backend, in listing order.
ATPG_BACKENDS: Dict[str, PodemBackend] = {
    backend.name: backend for backend in (PodemBackend(), DalgBackend())}


def atpg_backend_names() -> Tuple[str, ...]:
    """The backend names, listing order."""
    return tuple(ATPG_BACKENDS)


def resolve_atpg_backend(name: Optional[str]) -> PodemBackend:
    """The backend named ``name`` (``None``: the default ``podem``).

    Unknown names raise a :class:`ValueError` spelling the backends.
    """
    name = DEFAULT_ATPG_BACKEND if name is None else str(name)
    try:
        return ATPG_BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown ATPG backend {name!r}; expected one of: "
            f"{', '.join(ATPG_BACKENDS)}") from None


# --------------------------------------------------------------------- #
# dynamic pattern compaction
# --------------------------------------------------------------------- #
#: How many already-kept cubes a new pattern tries to merge into (a
#: deterministic sliding window keeps compaction linear-ish).
_MERGE_WINDOW = 8

#: Trace detail cap: per-pattern events beyond this are counted, not listed.
_TRACE_EVENT_CAP = 64


def _controllable_nets(netlist: Netlist) -> List[str]:
    """The fill points of a pattern: untied primary inputs and untied
    flip-flop outputs (same set the random phase drives)."""
    controllable: List[str] = []
    for port in netlist.input_ports():
        if netlist.net(port).tied is None:
            controllable.append(port)
    for inst in netlist.sequential_instances():
        for pin in inst.output_pins():
            if pin.net is not None and pin.net.tied is None:
                controllable.append(pin.net.name)
    return controllable


def _cubes_compatible(a: Dict[str, int], b: Dict[str, int]) -> bool:
    for net, value in b.items():
        if a.get(net, value) != value:
            return False
    return True


def compact_patterns(netlist: Netlist,
                     entries: Sequence[Tuple[Fault, Dict[str, int],
                                             Dict[str, int]]]
                     ) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Dynamically compact the patterns an ATPG run produced.

    ``entries`` is the canonical-order stream of ``(fault, pattern,
    init_pattern)`` triples the search emitted.  Each pattern is
    fault-simulated as it arrives (0-filled at the unassigned controllable
    points):

    * a pattern detecting nothing still uncovered is **dropped**;
    * a single-frame pattern whose cube is compatible with a recently kept
      cube is **merged** — but only when simulation proves the merged cube
      still detects the union of both cubes' fault sets (merge-then-verify,
      so compaction can never lose coverage);
    * two-frame patterns (launch + capture) are simulated as width-2
      windows and kept or dropped, never merged across faults;
    * finally the kept patterns are re-ordered by detection count, so a
      consumer sweeping the list front-to-back sees coverage rise steepest
      first — pattern counts drop as coverage rises.

    Returns ``(compacted, trace)`` where each compacted entry carries the
    cube(s), the faults it is credited with and its detection count, and
    ``trace`` summarizes what compaction did (recorded in the report).
    Everything is measured with the same simulator, so the compacted set's
    simulated detections equal the original stream's by construction.
    """
    trace: Dict[str, Any] = {
        "generated": len(entries), "kept": 0, "merged": 0, "dropped": 0,
        "events": [], "events_truncated": 0,
    }
    if not entries:
        return [], trace

    sim = ParallelPatternSimulator(netlist)
    controllable = _controllable_nets(netlist)
    uncovered: Set[Fault] = {fault for fault, _, _ in entries}
    order_index = {fault: i for i, (fault, _, _) in enumerate(entries)}

    def detects(cube: Dict[str, int], init_cube: Optional[Dict[str, int]],
                candidates: Iterable[Fault]) -> Set[Fault]:
        candidates = set(candidates)
        if not candidates:
            return set()
        if init_cube is None:
            patterns = {net: cube.get(net, 0) & 1 for net in controllable}
            return sim.detected_faults(candidates, patterns, 1)
        word_mask = mask(2)
        patterns = {
            net: ((init_cube.get(net, 0) & 1)
                  | ((cube.get(net, 0) & 1) << 1)) & word_mask
            for net in controllable
        }
        return sim.detected_faults(candidates, patterns, 2)

    def note(action: str, fault: Fault, count: int) -> None:
        if len(trace["events"]) < _TRACE_EVENT_CAP:
            trace["events"].append(
                {"action": action, "fault": str(fault), "detects": count})
        else:
            trace["events_truncated"] += 1

    kept: List[Dict[str, Any]] = []
    for fault, pattern, init_pattern in entries:
        init_cube = dict(init_pattern) if init_pattern else None
        cube = dict(pattern)
        newly = detects(cube, init_cube, uncovered)
        if not newly:
            trace["dropped"] += 1
            note("drop", fault, 0)
            continue
        newly_ordered = sorted(newly, key=lambda f: order_index[f])
        merged = False
        if init_cube is None:
            for entry in kept[-_MERGE_WINDOW:]:
                if entry["init_pattern"]:
                    continue
                if not _cubes_compatible(entry["pattern"], cube):
                    continue
                candidate = dict(entry["pattern"])
                candidate.update(cube)
                union = set(entry["fault_objs"]) | newly
                if detects(candidate, None, union) >= union:
                    entry["pattern"] = candidate
                    entry["fault_objs"] = sorted(
                        union, key=lambda f: order_index[f])
                    merged = True
                    break
        if merged:
            trace["merged"] += 1
            note("merge", fault, len(newly))
        else:
            kept.append({"pattern": cube,
                         "init_pattern": dict(init_pattern or {}),
                         "fault_objs": newly_ordered})
            note("keep", fault, len(newly))
        uncovered -= newly

    # Steepest-coverage-first ordering (stable, so equal counts keep the
    # canonical production order).
    kept.sort(key=lambda entry: -len(entry["fault_objs"]))
    compacted: List[Dict[str, Any]] = []
    for entry in kept:
        compacted.append({
            "pattern": entry["pattern"],
            "init_pattern": entry["init_pattern"],
            "faults": [str(f) for f in entry["fault_objs"]],
            "detects": len(entry["fault_objs"]),
        })
    trace["kept"] = len(compacted)
    return compacted, trace


__all__ = [
    "ATPG_BACKENDS",
    "DEFAULT_ATPG_BACKEND",
    "DalgBackend",
    "PodemBackend",
    "atpg_backend_names",
    "compact_patterns",
    "resolve_atpg_backend",
]
