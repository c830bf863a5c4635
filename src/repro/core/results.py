"""Result objects of the on-line untestable identification flow.

The pass pipeline (:mod:`repro.pipeline`) assembles an
:class:`OnlineUntestableReport`; everything downstream (Table-I
rendering, fault-list pruning, the benchmarks) consumes it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.debug_control import DebugControlResult
from repro.core.debug_observe import DebugObserveResult
from repro.core.memory_analysis import MemoryMapResult
from repro.core.scan_analysis import ScanAnalysisResult
from repro.faults.categories import (FaultClass, OnlineUntestableSource,
                                     source_label)
from repro.faults.models import DEFAULT_FAULT_MODEL, Fault, parse_fault
from repro.faults.faultlist import FaultList


@dataclass
class FlowConfig:
    """The paper's switches: which untestability sources run (§3) and the
    Fig. 6 tie-flop ablation.  Every runtime knob (effort, fault model,
    workers, store, ...) is a :class:`repro.api.RunOptions` field."""

    run_scan: bool = True
    run_debug_control: bool = True
    run_debug_observe: bool = True
    run_memory_map: bool = True
    tie_flop_outputs: bool = True   # §3.3 / Fig. 6 ablation knob
    tie_flop_inputs: bool = True


@dataclass
class SourceSummary:
    """Per-source contribution to the on-line untestable population."""

    source: OnlineUntestableSource
    identified: Set[Fault] = field(default_factory=set)
    attributed: Set[Fault] = field(default_factory=set)
    runtime_seconds: float = 0.0

    @property
    def count(self) -> int:
        return len(self.attributed)


@dataclass
class OnlineUntestableReport:
    """The flow's result — everything needed to print Table I."""

    netlist_name: str
    total_faults: int
    #: Registry name of the fault model the universe was enumerated under.
    fault_model: str = DEFAULT_FAULT_MODEL
    baseline_untestable: Set[Fault] = field(default_factory=set)
    sources: List[SourceSummary] = field(default_factory=list)
    scan_result: Optional[ScanAnalysisResult] = None
    debug_control_result: Optional[DebugControlResult] = None
    debug_observe_result: Optional[DebugObserveResult] = None
    memory_result: Optional[MemoryMapResult] = None
    runtimes: Dict[str, float] = field(default_factory=dict)
    #: Proof-category -> count of faults the static analysis proved
    #: untestable without a PODEM search (empty below FULL effort or with
    #: ``static_prune`` off).
    static_proof_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def online_untestable(self) -> Set[Fault]:
        result: Set[Fault] = set()
        for source in self.sources:
            result |= source.attributed
        return result

    @property
    def total_online_untestable(self) -> int:
        return len(self.online_untestable)

    def percentage(self, count: int) -> float:
        return 100.0 * count / self.total_faults if self.total_faults else 0.0

    def source_count(self, source: OnlineUntestableSource) -> int:
        for summary in self.sources:
            if summary.source is source:
                return summary.count
        return 0

    def table_rows(self) -> List[Dict[str, object]]:
        """Rows in the layout of the paper's Table I."""
        rows: List[Dict[str, object]] = [{
            "source": "Original",
            "count": len(self.baseline_untestable),
            "percent": self.percentage(len(self.baseline_untestable)),
        }]
        scan = self.source_count(OnlineUntestableSource.SCAN)
        debug_ctrl = self.source_count(OnlineUntestableSource.DEBUG_CONTROL)
        debug_obs = self.source_count(OnlineUntestableSource.DEBUG_OBSERVE)
        memory = self.source_count(OnlineUntestableSource.MEMORY_MAP)
        rows.append({"source": "Scan", "count": scan,
                     "percent": self.percentage(scan)})
        rows.append({"source": "Debug", "count": debug_ctrl + debug_obs,
                     "detail": f"{debug_ctrl}+{debug_obs}",
                     "percent": self.percentage(debug_ctrl + debug_obs)})
        rows.append({"source": "Memory", "count": memory,
                     "percent": self.percentage(memory)})
        total = self.total_online_untestable
        rows.append({"source": "TOTAL", "count": total,
                     "percent": self.percentage(total)})
        return rows

    def to_table(self) -> str:
        from repro.core.report import render_summary_table
        return render_summary_table(self)

    def apply_to_fault_list(self, fault_list: FaultList) -> FaultList:
        """Mark the identified faults in a fault list and return the pruned list."""
        for summary in self.sources:
            fault_list.classify_many(summary.attributed, FaultClass.UT, summary.source)
        return fault_list.prune(self.online_untestable)

    # ------------------------------------------------------------------ #
    # serialization — the persistable core of the report
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> Dict[str, object]:
        """The JSON-serializable core of the report.

        Covers everything Table I and the sweep aggregation need — fault
        populations as ``"site s-a-V"`` strings, per-source sets, runtimes.
        The per-analysis detail objects (``scan_result`` & friends) are
        in-memory conveniences and are *not* serialized; a report restored
        with :meth:`from_json` has them set to ``None``.
        """
        payload: Dict[str, object] = {
            "schema": 1,
            "netlist": self.netlist_name,
            "fault_model": self.fault_model,
            "total_faults": self.total_faults,
            "total_online_untestable": self.total_online_untestable,
            "baseline_untestable": sorted(str(f)
                                          for f in self.baseline_untestable),
            "sources": [{
                "source": source_label(summary.source),
                "identified": sorted(str(f) for f in summary.identified),
                "attributed": sorted(str(f) for f in summary.attributed),
                "runtime_seconds": summary.runtime_seconds,
            } for summary in self.sources],
            "table": self.table_rows(),
            "runtimes": dict(self.runtimes),
        }
        if self.static_proof_counts:
            # Emitted only when the static prover ran: reports produced at
            # tie/random effort keep their historical byte-exact JSON.
            payload["static_proof_counts"] = {
                k: self.static_proof_counts[k]
                for k in sorted(self.static_proof_counts)}
        return payload

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "OnlineUntestableReport":
        def parse_faults(items) -> Set[Fault]:
            return {parse_fault(text) for text in items}

        def parse_source(value: str):
            try:
                return OnlineUntestableSource(value)
            except ValueError:
                return value  # custom pass source — kept as its raw label

        report = cls(
            netlist_name=data["netlist"],
            total_faults=int(data["total_faults"]),
            fault_model=str(data.get("fault_model", DEFAULT_FAULT_MODEL)),
            baseline_untestable=parse_faults(data.get("baseline_untestable", ())),
            runtimes={k: float(v)
                      for k, v in (data.get("runtimes") or {}).items()},
            static_proof_counts={
                k: int(v)
                for k, v in (data.get("static_proof_counts") or {}).items()},
        )
        for entry in data.get("sources", ()):
            report.sources.append(SourceSummary(
                source=parse_source(entry["source"]),
                identified=parse_faults(entry.get("identified", ())),
                attributed=parse_faults(entry.get("attributed", ())),
                runtime_seconds=float(entry.get("runtime_seconds", 0.0)),
            ))
        return report

    @classmethod
    def from_json(cls, text: str) -> "OnlineUntestableReport":
        return cls.from_json_dict(json.loads(text))
