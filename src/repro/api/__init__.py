"""Session/Design API: batch scenario sweeps over pluggable executors.

This package is the public face of the reproduction at scale::

    from repro.api import ScenarioGrid, Session

    session = Session(executor="thread")
    report = session.analyze("small")            # one design

    grid = (ScenarioGrid("tiny")
            .axis("debug", [True, False])
            .axis("effort", ["tie", "random"]))
    sweep = session.sweep(grid)                  # 4 scenario variants
    print(sweep.to_table())                      # per-scenario Table I + Δ

The pieces compose:

* :class:`Design` — immutable target handle with a stable content
  signature (netlist structure + memory map);
* :class:`Session` — owns the artifact cache, the executor backend,
  pass-selection defaults and the session's :class:`RunOptions`;
  ``analyze`` / ``sweep`` / ``iter_sweep``;
* :class:`RunOptions` — every run knob, declared once (the CLI flags,
  grid run axes and corpus/service spec keys derive from it);
* :class:`ScenarioGrid` / :class:`Scenario` — declarative cartesian sweeps
  over SoC-variant axes plus the run-knob axes;
* :class:`SerialExecutor` / :class:`ThreadExecutor` /
  :class:`ProcessExecutor` — interchangeable sweep backends;
* :class:`SweepResult` / :class:`SweepReport` — streamed per-scenario
  outcomes and the aggregated, serializable multi-scenario report.
"""

from repro.api.corpus import (DEFAULT_CORPUS_DIR, CorpusEntry, CorpusError,
                              CorpusOutcome, load_corpus, run_corpus)
from repro.api.design import Design
from repro.api.executors import (EXECUTORS, Executor, ProcessExecutor,
                                 SerialExecutor, ThreadExecutor,
                                 resolve_executor)
from repro.api.grid import Scenario, ScenarioGrid
from repro.api.options import DEFAULT_RUN_OPTIONS, RunOptions
from repro.atpg.engine import resolve_effort
from repro.api.session import DEFAULT_CACHE_ENTRIES, Session
from repro.api.sweep import SweepReport, SweepResult

__all__ = [
    "Design",
    "RunOptions",
    "DEFAULT_RUN_OPTIONS",
    "resolve_effort",
    "Session",
    "Scenario",
    "ScenarioGrid",
    "SweepResult",
    "SweepReport",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "EXECUTORS",
    "resolve_executor",
    "DEFAULT_CACHE_ENTRIES",
    "CorpusEntry",
    "CorpusError",
    "CorpusOutcome",
    "DEFAULT_CORPUS_DIR",
    "load_corpus",
    "run_corpus",
]
