"""Rendering of flow results in the layout of the paper's Table I."""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.faults.categories import source_label
from repro.utils.tables import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.results import OnlineUntestableReport


def _model_label(report: "OnlineUntestableReport") -> str:
    """Human wording of the report's fault model ("stuck-at", ...); an
    unknown model name is shown verbatim rather than failing the render."""
    from repro.faults.models import FAULT_MODELS

    model = FAULT_MODELS.get(report.fault_model)
    return model.label if model is not None else report.fault_model


def render_summary_table(report: "OnlineUntestableReport") -> str:
    """Render the Table-I style summary of on-line functionally untestable
    faults, titled with the report's fault model ("stuck-at faults",
    "transition-delay faults", ...)."""
    model_label = _model_label(report)
    table = Table(["Source", "[#]", "[%]"],
                  title=(f"On-line functionally untestable faults — "
                         f"{report.netlist_name} "
                         f"({report.total_faults:,} {model_label} faults)"))
    for row in report.table_rows():
        count = row.get("detail", row["count"])
        if isinstance(count, int):
            count_text = f"{count:,}"
        else:
            count_text = str(count)
        table.add_row([row["source"], count_text, f"{row['percent']:.1f}%"])
    return table.render()


def render_source_details(report: "OnlineUntestableReport",
                          max_faults_per_source: int = 10) -> str:
    """A per-source breakdown with example faults, runtimes and counts."""
    lines: List[str] = []
    lines.append(f"Fault universe: {report.total_faults:,} "
                 f"{_model_label(report)} faults ({report.netlist_name})")
    lines.append(f"Baseline (already untestable before manipulation): "
                 f"{len(report.baseline_untestable):,}")
    for summary in report.sources:
        lines.append("")
        lines.append(f"Source: {source_label(summary.source)}")
        lines.append(f"  identified: {len(summary.identified):,}   "
                     f"attributed (new): {summary.count:,}   "
                     f"runtime: {summary.runtime_seconds:.3f}s")
        examples = sorted(summary.attributed)[:max_faults_per_source]
        for fault in examples:
            lines.append(f"    {fault}")
        remaining = summary.count - len(examples)
        if remaining > 0:
            lines.append(f"    ... and {remaining:,} more")
    lines.append("")
    lines.append(f"TOTAL on-line functionally untestable: "
                 f"{report.total_online_untestable:,} "
                 f"({report.percentage(report.total_online_untestable):.1f}%)")
    return "\n".join(lines)
