#!/usr/bin/env python3
"""One warm worker pool, many runs: the parallel runtime.

``jobs=2`` is the only knob.  This example builds one
:class:`repro.Session` with ``RunOptions(jobs=2)`` and pushes a two-axis
scenario sweep through it; every fault-population engine then runs on the
process-wide warm worker pool for two workers:

* the **first** simulating scenario pays the cold start — workers
  spawn, the compiled netlist and job state are installed
  (content-addressed, once per netlist signature);
* **every later** scenario against the same netlist lands on warm
  workers — its setup is a worker-side cache hit measured in
  microseconds (watch ``install_hits`` climb), and the work-stealing
  scheduler hands each worker one cone-affine fault chunk per task.

Verdicts and Table I are byte-identical to the serial engine either
way — ``jobs`` is a runtime knob, not a cache facet.
``REPRO_POOL_START_METHOD=spawn`` starts the workers by spawn instead of
fork, with identical results.

The identical flow runs from the command line::

    python -m repro sweep --base tiny --axis effort=tie,random \\
        --axis fault_model=stuck_at,transition --jobs 2
    python -m repro analyze tiny --jobs 2

Run with:  python examples/warm_pool_sweep.py
"""

import repro
from repro.api import RunOptions


def main() -> None:
    options = RunOptions(jobs=2)
    with repro.Session(options=options) as session:
        # Two fault models over two efforts: four scenarios, one
        # netlist.  The first scenario that simulates provisions the
        # pool; the other three find everything already installed.
        grid = (repro.ScenarioGrid("tiny")
                .axis("effort", ["tie", "random"])
                .axis("fault_model", ["stuck_at", "transition"]))
        report = session.sweep(grid)
        print(report.to_table())
        print()

        # A repeat analysis of the same design doesn't even reach the
        # pool: the session's artifact cache replays it outright, and
        # the warm workers keep waiting for the next real job.
        session.analyze("tiny", options=RunOptions(effort="random"))

        for stats in session.pool_stats():
            print(f"pool[{stats['workers']} workers, "
                  f"{stats['start_method']}]: "
                  f"{stats['installs']} installs, "
                  f"{stats['install_hits']} warm hits, "
                  f"{stats['tasks']} tasks, "
                  f"cold start {stats['cold_start_seconds']:.3f}s, "
                  f"last setup {stats['last_setup_seconds']:.6f}s, "
                  f"{stats['worker_restarts']} restarts")
    # The process-wide pool registry is reaped atexit (or explicitly via
    # session.close(shutdown_pools=True)).


if __name__ == "__main__":
    main()
