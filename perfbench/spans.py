"""Span recording for the traced benchmark run.

The program under test carries no tracing of its own.  This module wraps
named public functions of each ``repro`` layer from the outside, records
one span per call (name, start, end, parent span, workload, iteration)
plus counters read off the calls' results, keeps everything in memory
and turns it into per-layer numbers when the run ends:

* a layer's *self time* is its spans' duration minus the part of each
  span that its child spans cover;
* every per-layer metric covers the traced set-up plus the traced
  iterations, per traced iteration, so it can be set against the
  workload's ``setup_s`` and ``wall_s``;
* spans export as Chrome trace-event JSON, which Perfetto and
  ``chrome://tracing`` open directly.

Work inside pool workers and inside the service subprocess is out of
reach of these wrappers; it shows only through the caller-side calls
that wait for it and through the ``stats`` / ``cache_stats`` counters.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Every per-layer metric with its unit, in report order.  BENCHMARK.json
#: lists the same names (the self-test pins the two together).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("soc.build_s", "s"), ("soc.builds", "count"),
    ("netlist.compile_s", "s"), ("netlist.compiles", "count"),
    ("faults.list_s", "s"), ("faults.count", "count"),
    ("api.analyze_s", "s"),
    ("pipeline.cache_hits", "count"), ("pipeline.cache_misses", "count"),
    ("pipeline.hit_ratio", "ratio"),
    ("atpg.tie_s", "s"), ("atpg.tie_calls", "count"),
    ("atpg.tie_classified_ratio", "ratio"),
    ("atpg.random_s", "s"), ("atpg.random_detected_ratio", "ratio"),
    ("simulation.detect_s", "s"), ("simulation.calls", "count"),
    ("simulation.fault_windows", "count"),
    ("analysis.build_s", "s"), ("analysis.prove_calls", "count"),
    ("analysis.proved_ratio", "ratio"),
    ("atpg.podem_s", "s"), ("atpg.podem_calls", "count"),
    ("atpg.podem_ms_per_call", "ms"), ("atpg.podem_backtracks", "count"),
    ("atpg.podem_abort_ratio", "ratio"),
    ("atpg.escalation_s", "s"), ("atpg.escalation_rescued_ratio", "ratio"),
    ("atpg.compaction_s", "s"), ("atpg.compaction_kept_ratio", "ratio"),
    ("sbst.capture_s", "s"), ("sbst.cycles", "count"), ("sbst.grade_s", "s"),
    ("runtime.spawn_s", "s"), ("runtime.install_s", "s"),
    ("runtime.install_hits", "count"), ("runtime.tasks", "count"),
    ("runtime.tasks_per_grade", "count"),
    ("runtime.worker_restarts", "count"),
    ("store.hits", "count"), ("store.misses", "count"),
    ("store.writes", "count"), ("store.corruptions", "count"),
    ("service.submit_ms", "ms"), ("service.queue_wait_ms", "ms"),
    ("service.run_ms", "ms"), ("service.result_ms", "ms"),
    ("service.rejections", "count"),
    ("aborted_ratio", "ratio"),
    ("req_cold_p50_ms", "ms"), ("req_store_p50_ms", "ms"),
    ("req_warm_p50_ms", "ms"), ("req_warm_p90_ms", "ms"),
    ("error_ratio", "ratio"),
    ("trace.overhead_s", "s"),
)

#: ``<span>_s`` metrics: the per-iteration self time of the named span.
_SELF_TIME_METRICS = {
    "soc.build_s": "soc.build",
    "netlist.compile_s": "netlist.compile",
    "faults.list_s": "faults.list",
    "api.analyze_s": "api.analyze",
    "atpg.tie_s": "atpg.tie",
    "atpg.random_s": "atpg.random",
    "simulation.detect_s": "simulation.detect",
    "analysis.build_s": "analysis.build",
    "atpg.podem_s": "atpg.podem",
    "atpg.escalation_s": "atpg.escalation",
    "atpg.compaction_s": "atpg.compaction",
    "sbst.capture_s": "sbst.capture",
    "sbst.grade_s": "sbst.grade",
}

#: Ratio metrics: (numerator counter, denominator counter).
_RATIOS = {
    "pipeline.hit_ratio": ("pipeline.cache_hits", "pipeline.lookups"),
    "atpg.tie_classified_ratio": ("atpg.tie_classified", "atpg.tie_faults"),
    "atpg.random_detected_ratio": ("atpg.random_detected",
                                   "atpg.random_faults"),
    "analysis.proved_ratio": ("analysis.proved", "analysis.prove_calls"),
    "atpg.podem_abort_ratio": ("atpg.podem_aborts", "atpg.podem_calls"),
    "atpg.escalation_rescued_ratio": ("atpg.escalation_rescued",
                                      "atpg.escalation_faults"),
    "atpg.compaction_kept_ratio": ("atpg.compaction_kept",
                                   "atpg.compaction_in"),
}


class Tracer:
    """In-memory span and counter sink for one benchmark process.

    ``phase`` labels every span and counter recorded while it is set:
    ``"setup"`` or the measured iteration's index.
    """

    def __init__(self, workload: str = "") -> None:
        self.workload = workload
        self.phase: Any = "setup"
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[Tuple[Any, str], float] = {}
        self._local = threading.local()
        self._ids = 0
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, **args: Any):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._ids += 1
            span_id = self._ids
        record = {"id": span_id, "name": name,
                  "parent": stack[-1] if stack else None,
                  "workload": self.workload, "iteration": self.phase,
                  "tid": threading.get_ident(), "start": time.perf_counter(),
                  "end": None, "args": args}
        stack.append(span_id)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def add(self, counter: str, amount: float = 1) -> None:
        key = (self.phase, counter)
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    # -- transport for spans recorded in a child process ---------------- #
    def export_state(self) -> Dict[str, Any]:
        return {"spans": self.spans,
                "counters": [[phase, name, value] for (phase, name), value
                             in self.counters.items()]}

    def merge_state(self, state: Dict[str, Any], *, phase: Any = None,
                    pid: Optional[int] = None) -> None:
        """Fold a child process's spans and counters into this tracer,
        relabelled to ``phase`` when given."""
        with self._lock:
            offset = self._ids
            for span in state["spans"]:
                span = dict(span, id=span["id"] + offset, pid=pid)
                if span["parent"] is not None:
                    span["parent"] += offset
                if phase is not None:
                    span["iteration"] = phase
                self.spans.append(span)
                self._ids = max(self._ids, span["id"])
        for span_phase, name, value in state["counters"]:
            key = (span_phase if phase is None else phase, name)
            self.counters[key] = self.counters.get(key, 0) + value


# --------------------------------------------------------------------- #
# self time
# --------------------------------------------------------------------- #
def _covered(intervals: Iterable[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    return {span["id"]: (span["end"] - span["start"])
            - _covered(children.get(span["id"], ()), span["start"],
                       span["end"])
            for span in spans}


def _phase_totals(tracer: Tracer, phases: Iterable[Any]):
    """Spans' self/total time and counters summed over ``phases``."""
    wanted = set(phases)
    spans = [s for s in tracer.spans if s["iteration"] in wanted]
    own = self_times(spans)
    rows: Dict[str, List[float]] = {}
    for span in spans:
        row = rows.setdefault(span["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += own[span["id"]]
        row[2] += span["end"] - span["start"]
    counts: Dict[str, float] = {}
    for (phase, name), value in tracer.counters.items():
        if phase in wanted:
            counts[name] = counts.get(name, 0) + value
    return rows, counts


def layer_table(tracer: Tracer, phases: List[Any]) -> List[Tuple]:
    """(span name, calls, self s, total s) per iteration of ``phases``."""
    rows, _ = _phase_totals(tracer, phases)
    n = max(1, len(phases))
    return sorted(((name, calls / n, own_s / n, total / n)
                   for name, (calls, own_s, total) in rows.items()),
                  key=lambda row: -row[2])


def layer_metrics(tracer: Tracer, measured: List[Any],
                  extra: Optional[Dict[str, float]] = None
                  ) -> Dict[str, Dict[str, Any]]:
    """Every :data:`PER_LAYER` metric of a traced run.

    Times and counts cover the traced set-up plus the traced iterations,
    divided by the number of traced iterations: set-up work shows,
    amortised, next to the per-iteration work.  Ratios and per-call
    means are taken over the same calls.  Layers a workload never reaches
    read 0.  ``extra`` supplies values measured outside the spans
    (latency percentiles, trace overhead).
    """
    n = max(1, len(measured))
    rows, counts = _phase_totals(tracer, list(measured) + ["setup"])
    own = {name: row[1] for name, row in rows.items()}
    values: Dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name in _SELF_TIME_METRICS:
            values[name] = own.get(_SELF_TIME_METRICS[name], 0.0) / n
        elif name in _RATIOS:
            num, den = _RATIOS[name]
            values[name] = (counts.get(num, 0) / counts[den]
                            if counts.get(den) else 0.0)
        elif name == "atpg.podem_ms_per_call":
            calls = counts.get("atpg.podem_calls", 0)
            values[name] = (1000.0 * own.get("atpg.podem", 0.0) / calls
                            if calls else 0.0)
        elif name == "runtime.tasks_per_grade":
            grades = counts.get("sbst.grades", 0)
            values[name] = (counts.get("runtime.tasks", 0) / grades
                            if grades else 0.0)
        elif unit == "ms" and name.startswith("service."):
            calls = counts.get(name[:-3] + "_calls", 0)
            values[name] = counts.get(name, 0) / calls if calls else 0.0
        else:
            values[name] = counts.get(name, 0) / n
    values.update(extra or {})
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The spans as Chrome trace-event JSON (complete ``X`` events, µs)."""
    base = min((s["start"] for s in tracer.spans), default=0.0)
    events = []
    for span in sorted(tracer.spans, key=lambda s: s["start"]):
        events.append({
            "name": span["name"], "cat": span["name"].split(".")[0],
            "ph": "X", "ts": (span["start"] - base) * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "pid": span.get("pid") or 0, "tid": span["tid"] % 100000,
            "args": dict(span["args"], id=span["id"], parent=span["parent"],
                         workload=span["workload"],
                         iteration=span["iteration"]),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# --------------------------------------------------------------------- #
# wrappers around the layers' public calls
# --------------------------------------------------------------------- #
def _size(value: Any) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _on_fault_list(tracer, result, args, kwargs):
    tracer.add("faults.count", _size(result))


def _on_tie(tracer, result, args, kwargs):
    tracer.add("atpg.tie_calls")
    tracer.add("atpg.tie_faults", _size(args[1] if len(args) > 1
                                        else kwargs.get("faults", ())))
    tracer.add("atpg.tie_classified", _size(result.classifications))


def _on_random(tracer, result, args, kwargs):
    faults = args[1] if len(args) > 1 else kwargs.get("faults", ())
    tracer.add("atpg.random_faults", _size(faults))
    tracer.add("atpg.random_detected", _size(result))


def _on_run_windows(tracer, result, args, kwargs):
    faults = args[1] if len(args) > 1 else kwargs.get("faults", ())
    windows = args[2] if len(args) > 2 else kwargs.get("windows", ())
    tracer.add("simulation.calls")
    tracer.add("simulation.fault_windows", _size(faults) * _size(windows))


def _on_detected_faults(tracer, result, args, kwargs):
    tracer.add("simulation.calls")
    tracer.add("simulation.fault_windows", _size(
        args[1] if len(args) > 1 else kwargs.get("faults", ())))


def _on_sim_call(tracer, result, args, kwargs):
    tracer.add("simulation.calls")


def _on_prove(tracer, result, args, kwargs):
    tracer.add("analysis.prove_calls")
    if result is not None:
        tracer.add("analysis.proved")


def _on_escalation(tracer, result, args, kwargs):
    faults = args[1] if len(args) > 1 else kwargs.get("faults", ())
    tracer.add("atpg.escalation_faults", _size(faults))
    tracer.add("atpg.escalation_rescued", _size(result[0]))


def _on_compaction(tracer, result, args, kwargs):
    tracer.add("atpg.compaction_in", _size(args[1] if len(args) > 1
                                           else kwargs.get("patterns", ())))
    tracer.add("atpg.compaction_kept", _size(result[0]))


def _on_capture(tracer, result, args, kwargs):
    tracer.add("sbst.cycles", _size(result))


def _on_grade(tracer, result, args, kwargs):
    tracer.add("sbst.grades")


def _on_build(tracer, result, args, kwargs):
    tracer.add("soc.builds")


#: (module, attribute path, span name, result hook).  Functions are
#: re-bound in every loaded ``repro`` module that imported them by name;
#: methods are replaced on their class.
_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.soc.soc_builder", "build_soc", "soc.build", _on_build),
    ("repro.api.session", "Session.design", "soc.build", None),
    ("repro.faults.faultlist", "generate_fault_list", "faults.list",
     _on_fault_list),
    ("repro.atpg.tie_analysis", "TieAnalysis.run", "atpg.tie", _on_tie),
    ("repro.atpg.random_patterns", "random_pattern_detection",
     "atpg.random", _on_random),
    ("repro.simulation.parallel", "ParallelPatternSimulator.run_windows",
     "simulation.detect", _on_run_windows),
    ("repro.simulation.parallel", "ParallelPatternSimulator.detected_faults",
     "simulation.detect", _on_detected_faults),
    ("repro.simulation.fault_sim", "FaultSimulator.run",
     "simulation.detect", _on_sim_call),
    ("repro.analysis.prover", "get_static_analysis", "analysis.build", None),
    ("repro.analysis.prover", "StaticAnalysis.prove", "analysis.prove",
     _on_prove),
    ("repro.atpg.engine", "run_escalation_phase", "atpg.escalation",
     _on_escalation),
    ("repro.atpg.portfolio", "compact_patterns", "atpg.compaction",
     _on_compaction),
    ("repro.sbst.monitor", "ToggleMonitor.run_suite", "sbst.capture",
     _on_capture),
    ("repro.sbst.grading", "FaultGrader.compare_with_pruning", "sbst.grade",
     _on_grade),
)


def _wrap(tracer: Tracer, original: Callable, name: str,
          hook: Optional[Callable]) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = original(*args, **kwargs)
        if hook is not None:
            hook(tracer, result, args, kwargs)
        return result
    return wrapper


def _wrap_compile(tracer: Tracer, original: Callable) -> Callable:
    from repro.netlist.compiled import compile_stats

    @functools.wraps(original)
    def wrapper(netlist):
        before = compile_stats()["builds"]
        with tracer.span("netlist.compile"):
            result = original(netlist)
        tracer.add("netlist.compiles", compile_stats()["builds"] - before)
        return result
    return wrapper


def _wrap_analyze(tracer: Tracer, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        before = self.cache_stats
        with tracer.span("api.analyze"):
            result = original(self, *args, **kwargs)
        after = self.cache_stats
        hits = after.get("hits", 0) - before.get("hits", 0)
        misses = after.get("misses", 0) - before.get("misses", 0)
        tracer.add("pipeline.cache_hits", hits)
        tracer.add("pipeline.cache_misses", misses)
        tracer.add("pipeline.lookups", hits + misses)
        return result
    return wrapper


class _TracedRun:
    """An ATPG run whose ``generate`` calls record ``atpg.podem`` spans."""

    def __init__(self, tracer: Tracer, run: Any) -> None:
        self._tracer = tracer
        self._run = run

    def generate(self, fault):
        from repro.atpg import PodemStatus

        with self._tracer.span("atpg.podem"):
            result = self._run.generate(fault)
        self._tracer.add("atpg.podem_calls")
        self._tracer.add("atpg.podem_backtracks", result.backtracks)
        if result.status not in (PodemStatus.DETECTED,
                                 PodemStatus.UNTESTABLE):
            self._tracer.add("atpg.podem_aborts")
        return result

    def __getattr__(self, name: str) -> Any:
        return getattr(self._run, name)


class _TracedBackend:
    def __init__(self, tracer: Tracer, backend: Any) -> None:
        self._tracer = tracer
        self._backend = backend

    def start(self, *args, **kwargs):
        return _TracedRun(self._tracer, self._backend.start(*args, **kwargs))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._backend, name)


def _wrap_resolve_backend(tracer: Tracer, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return _TracedBackend(tracer, original(*args, **kwargs))
    return wrapper


def _rebind(original: Callable, replacement: Callable,
            undo: List[Callable]) -> None:
    """Point every loaded ``repro`` module's reference to ``original`` at
    ``replacement`` (``from x import f`` copies included)."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append(functools.partial(setattr, module, attr,
                                              original))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced call; returns the function that unwraps them.

    Imports ``repro`` first so that each module holding a copy of a
    wrapped function is loaded before the copies are re-bound.
    """
    import repro  # noqa: F401
    import repro.service  # noqa: F401
    import repro.sbst  # noqa: F401
    import repro.runtime  # noqa: F401

    undo: List[Callable] = []
    for module_name, path, name, hook in _TARGETS:
        owner = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, _wrap(tracer, original, name, hook))
            undo.append(functools.partial(setattr, cls, attr, original))
        else:
            original = getattr(owner, path)
            _rebind(original, _wrap(tracer, original, name, hook), undo)
    from repro.api.session import Session
    analyze = Session.__dict__["analyze"]
    Session.analyze = _wrap_analyze(tracer, analyze)
    undo.append(functools.partial(setattr, Session, "analyze", analyze))

    from repro.netlist.compiled import get_compiled
    _rebind(get_compiled, _wrap_compile(tracer, get_compiled), undo)
    from repro.atpg.portfolio import resolve_atpg_backend
    _rebind(resolve_atpg_backend,
            _wrap_resolve_backend(tracer, resolve_atpg_backend), undo)

    def uninstall() -> None:
        for step in reversed(undo):
            step()
    return uninstall
