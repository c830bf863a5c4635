#!/usr/bin/env python3
"""Drive the ATPG portfolio: its two backends and RunOptions.

The classification engines generate tests through a portfolio of
backends (:mod:`repro.atpg.portfolio`): the classic ``podem`` reference
and ``dalg`` (PODEM primary plus a five-valued D-algorithm escalation
tier that turns aborted AU faults into proven UU/DT where the search
completes).

This example runs the same analysis under both backends and shows the
portfolio contract in action:

* at tie effort no search runs, so the rendered Table I is
  byte-identical across backends;
* at FULL effort ``dalg`` re-attacks the faults ``podem`` aborted, and
  every fault both backends settle gets the same verdict;
* the per-run knobs travel as one frozen :class:`repro.api.RunOptions`
  bundle;
* the compacted pattern set and its compaction trace
  (generated/kept/merged/dropped) ride on the engine report.

The identical flows run from the command line::

    python -m repro analyze tiny --atpg-backend dalg
    python -m repro sweep --base tiny --axis atpg_backend=podem,dalg
    python -m repro backends

Run with:  python examples/atpg_portfolio.py
"""

from repro.api import RunOptions, Session
from repro.atpg.engine import AtpgEffort, StructuralUntestabilityEngine
from repro.atpg.portfolio import ATPG_BACKENDS, atpg_backend_names
from repro.faults.faultlist import generate_fault_list
from repro.soc.config import SoCConfig
from repro.soc.soc_builder import build_soc


def main() -> None:
    print("ATPG backends:")
    for name in atpg_backend_names():
        backend = ATPG_BACKENDS[name]
        tier = " (escalates aborts)" if backend.escalates else ""
        print(f"  {name:6s} {backend.description}{tier}")

    # One session, one design, both backends: the verdict table must not
    # move by a byte.
    session = Session(options=RunOptions(effort="tie"))
    tables = {}
    for name in atpg_backend_names():
        report = session.analyze("tiny", options=RunOptions(
            atpg_backend=name))
        tables[name] = report.to_table()
    reference = tables["podem"]
    for name, table in tables.items():
        marker = "==" if table == reference else "!="
        print(f"  Table I under {name:6s} {marker} podem reference")
    assert all(table == reference for table in tables.values())

    # The engine-level view: classify a deterministic fault sample at FULL
    # effort under both backends (the full population is corpus/benchmark
    # territory, not example territory).
    netlist = build_soc(SoCConfig.tiny()).cpu
    population = generate_fault_list(netlist).faults()
    step = max(1, len(population) // 200)
    faults = population[::step][:200]
    reports = {}
    for name in atpg_backend_names():
        reports[name] = StructuralUntestabilityEngine(
            netlist, effort=AtpgEffort.FULL,
            atpg_backend=name).classify(faults)
        print(f"\nFULL-effort classification of {len(faults)} of "
              f"{len(population)} faults under {name}: "
              f"{reports[name].counts()}")
    podem, dalg = (reports[name].classifications
                   for name in ("podem", "dalg"))
    assert all(podem[f] == dalg[f] for f in faults
               if "AU" not in (podem[f].value, dalg[f].value))

    report = reports["dalg"]
    if report.compaction:
        trace = report.compaction
        print(f"pattern compaction: {trace['generated']} generated -> "
              f"{trace['kept']} kept ({trace['merged']} merged, "
              f"{trace['dropped']} dropped)")
        for entry in report.patterns[:3]:
            print(f"  pattern detects {entry['detects']:3d} faults")


if __name__ == "__main__":
    main()
