"""The ATPG portfolio: pluggable test-generation backends + compaction.

One PODEM engine stopped being the right answer for every fault: easy
faults want the cheap classic search, hard faults want randomized restarts
that sidestep a bad early decision, and aborted faults want a complete
(if slower) prover that can turn AU into a real verdict.  This module
packages those strategies behind one seam:

:class:`AtpgBackend`
    The protocol a strategy implements: ``start(netlist, ...)`` returns a
    per-run generator with ``generate(fault)`` (primary search) and
    ``escalate(fault)`` (optional second tier for aborted faults).

:data:`ATPG_BACKENDS`
    The process-global :class:`~repro.core.registry.Registry` holding the
    built-in backends —

    ``podem``
        the classic engine (:class:`~repro.atpg.podem.Podem`), unchanged:
        the serial reference every other backend is checked against.
    ``podem-restart``
        :class:`RestartPodem` — staged backtrack budgets with a
        deterministically re-seeded randomized decision ordering per
        attempt.  Each fault's RNG stream derives from
        ``(seed, fault, attempt)`` alone, so verdicts are identical no
        matter how the fault list is sharded across workers.
    ``dalg``
        PODEM primary plus a :class:`~repro.atpg.dalg.DAlg` escalation
        tier that re-attacks aborted faults with the five-valued
        D-algorithm, turning AU into proven UU (or DT) where possible.

Every backend is *per-fault deterministic*: the verdict for a fault
depends only on (netlist, fault, seed), never on batch order — the
invariant that keeps serial and pooled classification byte-identical.

:func:`compact_patterns` is the portfolio's second half: the patterns the
search emits are fault-simulated (event-driven word walks) as they are
produced, merged where compatible cubes provably keep their union of
detections, dropped when covered, and re-ordered steepest-coverage-first —
so pattern counts drop as coverage rises.  The compaction trace lands in
the classification report.
"""

from __future__ import annotations

import random
import zlib
from typing import (Any, Dict, Iterable, List, Optional, Protocol, Sequence,
                    Set, Tuple, runtime_checkable)

from repro.atpg.dalg import DAlg
from repro.atpg.podem import Podem, PodemResult, PodemStatus
from repro.core.registry import Registry
from repro.faults.models import Fault
from repro.netlist.cells import LOGIC_1, LOGIC_X
from repro.netlist.module import Netlist
from repro.simulation.parallel import ParallelPatternSimulator
from repro.utils.bitvec import mask

#: Default backend name (the serial reference engine).
DEFAULT_ATPG_BACKEND = "podem"

#: Default seed for randomized backends, matching the engine's random-phase
#: seed (the paper's year).
DEFAULT_ATPG_SEED = 2013

#: Escalation tier budget multiplier (the D-algorithm gets more rope than
#: the primary search that already gave up).
_ESCALATION_BUDGET_FACTOR = 4

#: Restart schedule: backtrack-budget divisors per attempt.  Attempt 0 is
#: the classic search on the full limit (so every fault the reference
#: engine resolves costs exactly the same here); aborted faults then get
#: randomized retries on half and quarter budgets — cheap lottery tickets
#: against an unlucky early decision.
_RESTART_BUDGET_DIVISORS = (1, 2, 4)


class AtpgRun(Protocol):
    """A backend instance bound to one netlist (one classification run)."""

    def generate(self, fault: Fault) -> PodemResult:
        """Primary search for one fault."""
        ...

    def escalate(self, fault: Fault) -> Optional[PodemResult]:
        """Second-tier re-attack of an aborted fault; ``None`` means the
        escalation could not improve on the primary verdict."""
        ...

    @property
    def learned_skips(self) -> int:
        """Decision branches skipped via learned implications so far."""
        ...


@runtime_checkable
class AtpgBackend(Protocol):
    """Structural protocol every portfolio backend satisfies."""

    #: Registry name (``repro analyze --atpg-backend <name>``).
    name: str
    #: One-line description for ``repro backends``.
    description: str
    #: Whether :meth:`AtpgRun.escalate` can improve aborted faults — when
    #: true the classifier runs a second pass over the merged abort
    #: frontier.
    escalates: bool

    def start(self, netlist: Netlist, *, backtrack_limit: int = 200,
              static=None, seed: int = DEFAULT_ATPG_SEED) -> AtpgRun:
        """Bind the backend to a netlist for one classification run."""
        ...


# --------------------------------------------------------------------- #
# randomized-restart PODEM
# --------------------------------------------------------------------- #
def _attempt_seed(seed: int, fault: Fault, attempt: int) -> int:
    """Derive the RNG seed of one restart attempt from the run seed and the
    fault identity alone (CRC32 of a stable text form, so the stream is
    identical across processes, platforms and shard assignments)."""
    return zlib.crc32(f"{seed}:{fault!r}:{attempt}".encode("utf-8"))


class RestartPodem(Podem):
    """PODEM with staged backtrack budgets and randomized restarts.

    The classic search wastes its whole budget refuting one unlucky early
    decision.  This variant runs up to ``len(_RESTART_BUDGET_DIVISORS)``
    attempts per fault.  Attempt 0 *is* the classic SCOAP-guided search on
    the full backtrack limit — every fault the reference engine resolves
    gets the identical verdict at the identical cost.  Only aborted faults
    go further: each retry re-seeds a per-fault RNG and both the objective
    selection and the backtrace walk pick uniformly among the
    otherwise-equivalent candidates, so the retries explore the decision
    tree from different corners on shrinking budgets (half, then a
    quarter of the limit) — cheap second chances against an unlucky early
    decision, which is where the classic search loses its budget.

    Soundness is untouched: ``DETECTED`` is established by five-valued
    simulation exactly as in the base class, and ``UNTESTABLE`` means the
    decision space was *exhausted* — a verdict independent of the order in
    which it was explored.
    """

    def __init__(self, netlist: Netlist, backtrack_limit: int = 200,
                 implication=None, static=None,
                 seed: int = DEFAULT_ATPG_SEED) -> None:
        super().__init__(netlist, backtrack_limit, implication, static)
        self.seed = seed
        self._base_limit = backtrack_limit
        self._rng = random.Random(seed)
        self._randomized = False

    def generate(self, fault: Fault) -> PodemResult:
        backtracks = 0
        decisions = 0
        result: Optional[PodemResult] = None
        for attempt, divisor in enumerate(_RESTART_BUDGET_DIVISORS):
            self.backtrack_limit = max(1, self._base_limit // divisor)
            self._randomized = attempt > 0
            self._rng = random.Random(_attempt_seed(self.seed, fault,
                                                    attempt))
            try:
                result = super().generate(fault)
            finally:
                self.backtrack_limit = self._base_limit
                self._randomized = False
            backtracks += result.backtracks
            decisions += result.decisions
            if result.status is not PodemStatus.ABORTED:
                break
        assert result is not None
        return PodemResult(result.status, fault, pattern=result.pattern,
                           init_pattern=result.init_pattern,
                           backtracks=backtracks, decisions=decisions)

    def _objective(self, fault_value: int, excite: int,
                   good: List[int], frontier: List[int]
                   ) -> Optional[Tuple[int, int]]:
        if not self._randomized:
            return super()._objective(fault_value, excite, good, frontier)
        compiled = self.compiled
        g = good[excite]
        wanted = LOGIC_1 - fault_value
        if g == LOGIC_X:
            return (excite, wanted)
        if g == fault_value:
            return None
        candidates: List[Tuple[int, int]] = []
        for op in frontier:
            controlling, _ = compiled.op_cell[op].control or (None, False)
            non_controlling = (LOGIC_1 - controlling
                               if controlling is not None else LOGIC_1)
            for nid in compiled.op_fanin[op]:
                if nid >= 0 and good[nid] == LOGIC_X:
                    candidates.append((nid, non_controlling))
        if not candidates:
            return None
        return candidates[self._rng.randrange(len(candidates))]

    def _backtrace(self, nid: int, value: int,
                   good: List[int]) -> Optional[Tuple[int, int]]:
        if not self._randomized:
            return super()._backtrace(nid, value, good)
        compiled = self.compiled
        current = nid
        current_value = value
        limit = (compiled.n_nets + compiled.n_ops
                 + len(compiled.seq_instances) + 1)
        for _ in range(limit):
            if current in self._controllable_ids:
                if good[current] == LOGIC_X:
                    return (current, current_value)
                return None
            op = compiled.net_driver_op[current]
            if op < 0:
                return None
            controlling, inversion = (compiled.op_cell[op].control
                                      or (None, False))
            target = (LOGIC_1 - current_value) if inversion else current_value
            candidates = [fanin_nid for fanin_nid in compiled.op_fanin[op]
                          if fanin_nid >= 0 and good[fanin_nid] == LOGIC_X]
            if not candidates:
                return None
            current = candidates[self._rng.randrange(len(candidates))]
            current_value = target
        return None


# --------------------------------------------------------------------- #
# per-run generator wrappers
# --------------------------------------------------------------------- #
class _GeneratorRun:
    """AtpgRun over a single generator with no escalation tier."""

    def __init__(self, generator: Podem) -> None:
        self.generator = generator

    def generate(self, fault: Fault) -> PodemResult:
        return self.generator.generate(fault)

    def escalate(self, fault: Fault) -> Optional[PodemResult]:
        return None

    @property
    def learned_skips(self) -> int:
        return self.generator.learned_skips


class _DalgRun:
    """PODEM primary with a lazily-built D-algorithm escalation tier."""

    def __init__(self, netlist: Netlist, backtrack_limit: int,
                 static) -> None:
        self.generator = Podem(netlist, backtrack_limit=backtrack_limit,
                               static=static)
        self._netlist = netlist
        self._limit = backtrack_limit
        self._static = static
        self._dalg: Optional[DAlg] = None

    def generate(self, fault: Fault) -> PodemResult:
        return self.generator.generate(fault)

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

    @property
    def learned_skips(self) -> int:
        return self.generator.learned_skips


# --------------------------------------------------------------------- #
# the backends
# --------------------------------------------------------------------- #
class PodemBackend:
    """The classic engine, unchanged — the serial reference."""

    name = "podem"
    description = "classic PODEM search (the reference engine)"
    escalates = False

    def start(self, netlist: Netlist, *, backtrack_limit: int = 200,
              static=None, seed: int = DEFAULT_ATPG_SEED) -> AtpgRun:
        return _GeneratorRun(Podem(netlist, backtrack_limit=backtrack_limit,
                                   static=static))


class RestartPodemBackend:
    """Randomized-restart PODEM with staged backtrack budgets."""

    name = "podem-restart"
    description = ("PODEM with staged backtrack budgets and seeded "
                   "randomized-restart decision ordering")
    escalates = False

    def start(self, netlist: Netlist, *, backtrack_limit: int = 200,
              static=None, seed: int = DEFAULT_ATPG_SEED) -> AtpgRun:
        return _GeneratorRun(RestartPodem(
            netlist, backtrack_limit=backtrack_limit, static=static,
            seed=seed))


class DalgBackend:
    """PODEM primary + five-valued D-algorithm escalation of aborts."""

    name = "dalg"
    description = ("PODEM primary search, aborted faults escalated to the "
                   "five-valued D-algorithm (AU becomes proven UU/DT where "
                   "the search completes)")
    escalates = True

    def start(self, netlist: Netlist, *, backtrack_limit: int = 200,
              static=None, seed: int = DEFAULT_ATPG_SEED) -> AtpgRun:
        return _DalgRun(netlist, backtrack_limit, static)


#: Backend name -> backend instance.
ATPG_BACKENDS: Registry = Registry("ATPG backend")


def register_atpg_backend(backend: AtpgBackend) -> AtpgBackend:
    """Register a portfolio backend under its ``name``."""
    return ATPG_BACKENDS.register(backend.name, backend)


register_atpg_backend(PodemBackend())
register_atpg_backend(RestartPodemBackend())
register_atpg_backend(DalgBackend())


def atpg_backend_names() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return ATPG_BACKENDS.names()


def resolve_atpg_backend(spec: Optional[object]) -> AtpgBackend:
    """Coerce a backend spec (name, backend instance or None) to a backend.

    ``None`` resolves to the default (``podem``); unknown names raise a
    :class:`ValueError` spelling the registered backends.
    """
    if spec is None:
        return ATPG_BACKENDS[DEFAULT_ATPG_BACKEND]
    if isinstance(spec, AtpgBackend) and not isinstance(spec, str):
        return spec
    return ATPG_BACKENDS.resolve(str(spec))


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
    "AtpgBackend",
    "AtpgRun",
    "DEFAULT_ATPG_BACKEND",
    "DEFAULT_ATPG_SEED",
    "DalgBackend",
    "PodemBackend",
    "RestartPodem",
    "RestartPodemBackend",
    "atpg_backend_names",
    "compact_patterns",
    "register_atpg_backend",
    "resolve_atpg_backend",
]
