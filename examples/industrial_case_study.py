#!/usr/bin/env python3
"""Reproduction of the paper's industrial case study (§4, Table I).

Builds the "date13" configuration — a 32-bit core with a 32-entry register
file, multiplier, barrel shifter, branch target buffer, a Nexus/JTAG-class
debug interface with 17 control pins and two 32-bit observation buses, full
mux-scan, and a memory map that frees only address bits 0..17 and 30 — and
runs the complete on-line untestability identification flow on it.

The absolute fault counts differ from the paper (the industrial e200z0
netlist is proprietary; ours is a synthetic equivalent), but the shape of
Table I is reproduced: scan is the dominant source (~9 %), debug contributes
a few percent split between control and observation, the memory map adds a
couple of percent, and the total lands in the low teens.

Run with:  python examples/industrial_case_study.py
"""

import time

from repro.api import Session
from repro.core.report import render_source_details
from repro.faults.categories import OnlineUntestableSource
from repro.soc import SoCConfig, build_soc
from repro.utils.tables import Table

# Table I of the paper, for side-by-side comparison.
PAPER_TABLE_I = {
    "total_faults": 214_930,
    "Scan": (19_142, 8.9),
    "Debug": (4_548 + 2_357, 3.2),
    "Memory": (3_610, 1.7),
    "TOTAL": (29_657, 13.8),
}


def main() -> None:
    print("Building the synthetic e200z0-class SoC (date13 configuration)...")
    start = time.perf_counter()
    soc = build_soc(SoCConfig.date13())
    build_time = time.perf_counter() - start

    stats = soc.stats()
    print(f"  {stats['instances']:,} cells, {stats['sequential']:,} scan flip-flops "
          f"in {stats['scan_chains']} chains, built in {build_time:.2f}s")
    print(f"  debug interface: {soc.debug_interface.control_count} control pins, "
          f"{soc.debug_interface.observation_count} observation pins")
    print(f"  {soc.memory_map}")
    print()

    start = time.perf_counter()
    report = Session().analyze(soc)
    flow_time = time.perf_counter() - start

    print(report.to_table())
    print()
    print(f"Total analysis time: {flow_time:.2f}s "
          f"(the paper reports < 1 s of TetraMax CPU time on the manipulated circuit)")
    print()

    comparison = Table(["Source", "paper [#]", "paper [%]", "ours [#]", "ours [%]"],
                       title="Paper Table I vs. this reproduction")
    rows = {row["source"]: row for row in report.table_rows()}
    for source in ("Scan", "Debug", "Memory", "TOTAL"):
        paper_count, paper_pct = PAPER_TABLE_I[source]
        ours = rows[source]
        comparison.add_row([source, paper_count, f"{paper_pct:.1f}%",
                            ours["count"], f"{ours['percent']:.1f}%"])
    print(comparison.render())
    print()

    ctrl = report.source_count(OnlineUntestableSource.DEBUG_CONTROL)
    obs = report.source_count(OnlineUntestableSource.DEBUG_OBSERVE)
    print(f"Debug split (control + observation): {ctrl:,} + {obs:,} "
          f"(paper: 4,548 + 2,357)")
    print()
    print(render_source_details(report, max_faults_per_source=3))


if __name__ == "__main__":
    main()
