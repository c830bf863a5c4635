#!/usr/bin/env python3
"""Batch scenario sweep: compare OLFU populations across SoC variants.

The paper's Table I is one design point.  This example expands a
:class:`repro.ScenarioGrid` — the cartesian product of scenario axes over a
base SoC configuration — and pushes it through
:meth:`repro.Session.sweep` in-process:

* ``debug`` axis: with and without the Nexus/JTAG-style debug logic;
* ``effort`` axis: the `tie` and `random` ATPG efforts.

Scenarios that share a netlist (here: the two efforts of each debug
variant) replay each other's effort-independent artifacts from the
session's shared cache, so the sweep does strictly less work than four
independent runs.  Results stream in completion order; the aggregated
report renders per-scenario Table-I rows with deltas against the first
scenario and serializes to JSON/CSV for diffing across runs.  With
``RunOptions(jobs=2)`` (``--jobs 2``) the scenarios would instead run one
per task on two warm pool workers — identical rows, but each worker keeps
its own cache, so the replay shown here happens worker-side.

The identical sweep runs from the command line::

    python -m repro sweep --base tiny --axis debug=on,off \\
        --axis effort=tie,random --out sweep.json
    python -m repro report sweep.json

Run with:  python examples/scenario_sweep.py
"""

import repro


def main() -> None:
    session = repro.Session()

    grid = (repro.ScenarioGrid("tiny")
            .axis("debug", [True, False])
            .axis("effort", ["tie", "random"]))
    print(f"expanding {grid!r}")
    print()

    # Stream results as the scenarios complete (a failing scenario
    # yields an error-carrying result instead of aborting the sweep) ...
    for result in session.iter_sweep(grid):
        if result.ok:
            print(f"  finished {result.label}: "
                  f"{result.report.total_online_untestable:,} OLFU faults "
                  f"({result.elapsed_seconds:.2f}s)")
        else:
            print(f"  FAILED {result.label}: {result.error}")
    print()

    # ... or let sweep() aggregate everything in one call.  The scenarios
    # are already cached, so this replays instantly.
    report = session.sweep(grid)
    print(report.to_table())
    print()
    print(f"shared-cache activity across the sweep: {session.cache_stats}")

    # The aggregated report round-trips through JSON for persistence and
    # diffing (python -m repro report <file>).
    restored = repro.SweepReport.from_json(report.to_json())
    assert [r.label for r in restored] == [r.label for r in report]
    print()
    print("per-scenario comparison as CSV:")
    print(restored.to_csv())


if __name__ == "__main__":
    main()
