"""repro — reproduction of Bernardi et al., "On-line Functionally Untestable
Fault Identification in Embedded Processor Cores", DATE 2013.

The package is organised as a set of substrates (netlist, simulation, faults,
ATPG, scan, debug, memory, manipulation, soc, sbst) plus the paper's primary
contribution — identification of on-line functionally untestable (OLFU)
stuck-at faults via circuit manipulation followed by
structural-untestability analysis — implemented as composable analysis
passes in :mod:`repro.pipeline` and orchestrated through the
:class:`Session`/:class:`Design` API in :mod:`repro.api`.

Quickstart::

    import repro

    session = repro.Session()
    report = session.analyze("small")        # preset name, SoCConfig,
    print(report.to_table())                 # SoC, Netlist or Design

Scenario sweeps expand a grid of SoC variants (core size, scan style,
debug interface, memory map, ATPG effort) and run them through a pluggable
executor backend with cross-scenario artifact reuse::

    grid = (repro.ScenarioGrid("tiny")
            .axis("debug", [True, False])
            .axis("effort", ["tie", "random"]))
    sweep = session.sweep(grid, executor="thread")
    print(sweep.to_table())                  # per-scenario Table I + deltas
    open("sweep.json", "w").write(sweep.to_json())

Every run knob (ATPG effort, fault model, worker count, static pruning,
durable store, ATPG backend and seed) is a field of one frozen
:class:`repro.api.RunOptions` bundle; :class:`FlowConfig` keeps only the
paper's switches (which untestability sources run, the Fig. 6 tie-flop
ablation)::

    from repro.api import RunOptions

    session = repro.Session(options=RunOptions(jobs=2, store="~/.cache/repro"))
    report = session.analyze("tiny", options=RunOptions(effort="random"))

``options.store`` layers a durable content-addressed store
(:mod:`repro.store`) under the session cache, and :mod:`repro.service`
serves the same sessions as a long-lived asyncio job service
(``python -m repro serve`` / ``submit`` / ``jobs``).

The same flows run from the command line (``python -m repro analyze small``,
``python -m repro sweep --base tiny --axis effort=tie,random``,
``python -m repro report sweep.json``).  Custom analyses plug in through
the :func:`repro.pipeline.analysis_pass` decorator (see
``examples/custom_pass.py``); custom sweep backends implement the
:class:`repro.api.Executor` protocol.
"""

from repro._version import __version__
from repro.api import (Design, Executor, ProcessExecutor, RunOptions,
                       Scenario, ScenarioGrid, SerialExecutor, Session,
                       SweepReport, SweepResult, ThreadExecutor)
from repro.atpg.engine import AtpgEffort, resolve_effort
from repro.core.results import FlowConfig, OnlineUntestableReport
from repro.faults.models import (FaultModel, StuckAtFault, TransitionFault,
                                 fault_model_names, register_fault_model,
                                 resolve_fault_model)
from repro.pipeline import (AnalysisPass, ArtifactCache, Pipeline,
                            PipelineBuilder, PipelineResult, analysis_pass,
                            default_pass_names)
from repro.store import ArtifactStore, LocalDirStore, resolve_store

__all__ = [
    # primary API
    "Session",
    "RunOptions",
    "Design",
    "ScenarioGrid",
    "Scenario",
    "SweepResult",
    "SweepReport",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "FlowConfig",
    # pipeline layer
    "Pipeline",
    "AnalysisPass",
    "ArtifactCache",
    # durable artifact store
    "ArtifactStore",
    "LocalDirStore",
    "resolve_store",
    "AtpgEffort",
    "resolve_effort",
    # fault models
    "FaultModel",
    "StuckAtFault",
    "TransitionFault",
    "fault_model_names",
    "register_fault_model",
    "resolve_fault_model",
    "__version__",
]
