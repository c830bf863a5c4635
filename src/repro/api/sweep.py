"""Sweep results and their multi-scenario aggregation.

A sweep produces one :class:`SweepResult` per scenario — streamed as the
scenarios complete — and a :class:`SweepReport` aggregating the full
grid: per-scenario Table-I rows, deltas against the first (baseline)
scenario, cache-reuse accounting, and JSON/CSV serialization so sweeps can
be persisted, diffed across runs and rendered later (``python -m repro
report sweep.json``).
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.results import OnlineUntestableReport

#: Table-I row labels in presentation order (source rows of the summary).
_ROW_LABELS = ("Original", "Scan", "Debug", "Memory", "TOTAL")


@dataclass
class SweepResult:
    """Outcome of one scenario: its report, or the error that stopped it."""

    index: int
    label: str
    design_signature: Optional[str] = None
    effort: Optional[str] = None
    report: Optional[OnlineUntestableReport] = None
    elapsed_seconds: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.report is not None

    def row_counts(self) -> Dict[str, int]:
        """Table-I row label -> count (empty when the scenario failed)."""
        if not self.ok:
            return {}
        return {str(row["source"]): int(row["count"])
                for row in self.report.table_rows()}

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "label": self.label,
            "design_signature": self.design_signature,
            "effort": self.effort,
            "elapsed_seconds": self.elapsed_seconds,
            "error": self.error,
            "report": self.report.to_json_dict() if self.report else None,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "SweepResult":
        report = data.get("report")
        return cls(
            index=int(data["index"]),
            label=data["label"],
            design_signature=data.get("design_signature"),
            effort=data.get("effort"),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            error=data.get("error"),
            report=(OnlineUntestableReport.from_json_dict(report)
                    if report else None),
        )


@dataclass
class SweepReport:
    """Aggregated outcome of a whole scenario sweep."""

    results: List[SweepResult] = field(default_factory=list)
    grid_name: str = ""
    elapsed_seconds: float = 0.0
    #: Artifact-cache activity *during this sweep* (deltas, not lifetime
    #: totals).  ``hits`` > 0 means at least one scenario replayed an
    #: artifact another scenario produced — cross-scenario reuse.
    cache_stats: Dict[str, int] = field(default_factory=dict)

    def __iter__(self) -> Iterator[SweepResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def succeeded(self) -> List[SweepResult]:
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> List[SweepResult]:
        return [r for r in self.results if not r.ok]

    @property
    def baseline(self) -> Optional[SweepResult]:
        """The comparison baseline: the first successful scenario."""
        ordered = self.succeeded
        return ordered[0] if ordered else None

    def result_for(self, label: str) -> SweepResult:
        for result in self.results:
            if result.label == label:
                return result
        known = ", ".join(r.label for r in self.results) or "<none>"
        raise KeyError(f"no scenario labelled {label!r} in sweep "
                       f"(scenarios: {known})")

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def comparison_rows(self) -> List[Dict[str, object]]:
        """One row per scenario: Table-I counts plus deltas vs the baseline.

        ``delta_total`` is the scenario's on-line untestable total minus the
        baseline scenario's (None for the baseline itself and for failures).
        """
        base = self.baseline
        base_counts = base.row_counts() if base else {}
        rows: List[Dict[str, object]] = []
        for result in self.results:
            row: Dict[str, object] = {
                "scenario": result.label,
                "effort": result.effort,
                "ok": result.ok,
                "elapsed_seconds": result.elapsed_seconds,
            }
            if result.ok:
                counts = result.row_counts()
                row["total_faults"] = result.report.total_faults
                for label in _ROW_LABELS:
                    row[label.lower()] = counts.get(label, 0)
                row["percent"] = result.report.percentage(
                    counts.get("TOTAL", 0))
                row["delta_total"] = (
                    None if base is None or result.index == base.index
                    else counts.get("TOTAL", 0) - base_counts.get("TOTAL", 0))
            else:
                row["error"] = result.error
            rows.append(row)
        return rows

    # ------------------------------------------------------------------ #
    # rendering & serialization
    # ------------------------------------------------------------------ #
    def to_table(self) -> str:
        """Fixed-width multi-scenario comparison (per-scenario Table I)."""
        headers = ["scenario", "faults", "orig", "scan", "debug", "memory",
                   "total", "%", "Δtotal", "time"]
        lines: List[List[str]] = []
        for row in self.comparison_rows():
            if not row["ok"]:
                lines.append([str(row["scenario"]), "-", "-", "-", "-", "-",
                              "-", "-", "-",
                              f"FAILED: {row.get('error', '?')}"])
                continue
            delta = row["delta_total"]
            lines.append([
                str(row["scenario"]),
                f"{row['total_faults']:,}",
                f"{row['original']:,}",
                f"{row['scan']:,}",
                f"{row['debug']:,}",
                f"{row['memory']:,}",
                f"{row['total']:,}",
                f"{row['percent']:.2f}",
                "=" if delta is None else f"{delta:+,}",
                f"{row['elapsed_seconds']:.2f}s",
            ])
        widths = [max(len(h), *(len(line[i]) for line in lines)) if lines
                  else len(h) for i, h in enumerate(headers)]
        out = io.StringIO()
        title = self.grid_name or "sweep"
        out.write(f"Scenario sweep '{title}' "
                  f"({len(self.results)} scenarios, "
                  f"{self.elapsed_seconds:.2f}s")
        hits = self.cache_stats.get("hits", 0)
        if hits:
            out.write(f", {hits} cached artifacts reused")
        out.write(")\n")
        header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        out.write(header + "\n")
        out.write("-" * len(header) + "\n")
        for line in lines:
            out.write("  ".join(c.ljust(w)
                                for c, w in zip(line, widths)).rstrip() + "\n")
        return out.getvalue().rstrip("\n")

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "schema": 1,
            "grid": self.grid_name,
            "elapsed_seconds": self.elapsed_seconds,
            "cache_stats": dict(self.cache_stats),
            "comparison": self.comparison_rows(),
            "scenarios": [r.to_json_dict() for r in self.results],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "SweepReport":
        # A schema-1 document may carry an "executor" key naming how the
        # sweep ran; it does not affect the results and is ignored.
        return cls(
            results=[SweepResult.from_json_dict(entry)
                     for entry in data.get("scenarios", ())],
            grid_name=data.get("grid", ""),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            cache_stats={k: int(v)
                         for k, v in (data.get("cache_stats") or {}).items()},
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        return cls.from_json_dict(json.loads(text))

    def to_csv(self) -> str:
        """Flat per-scenario CSV of the comparison rows (for spreadsheets)."""
        import csv

        columns = ["scenario", "effort", "ok", "total_faults", "original",
                   "scan", "debug", "memory", "total", "percent",
                   "delta_total", "elapsed_seconds", "error"]
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in self.comparison_rows():
            writer.writerow(row)
        return out.getvalue()
