#!/usr/bin/env python3
"""One warm worker pool, many runs: the parallel runtime.

``jobs=2`` is the only concurrency knob.  This example builds one
:class:`repro.Session` with ``RunOptions(jobs=2)`` and drives both things
that knob parallelises through the process-wide warm worker pool for two
workers:

* a **sweep** of at least as many scenarios as workers runs one scenario
  per pool task — the first task pays the cold start (workers spawn, the
  sweep's job is installed once), every later scenario lands on a warm
  worker, and the two workers each take a scenario before either takes a
  second one;
* a single **analysis** shards its fault population into cone-affine
  chunks, one chunk per task, with the netlist installed once per
  signature and each engine's job state once per content key (a later
  run with the same inputs counts ``install_hits`` instead).

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
        # Two fault models over two efforts: four scenarios, one per
        # pool task on two workers.
        grid = (repro.ScenarioGrid("tiny")
                .axis("effort", ["tie", "random"])
                .axis("fault_model", ["stuck_at", "transition"]))
        report = session.sweep(grid)
        print(report.to_table())
        print()

        # One analysis: its random-pattern fault population is sharded
        # over the same warm workers; the repeat replays from the
        # session's artifact cache and never reaches the pool.
        for _ in range(2):
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
