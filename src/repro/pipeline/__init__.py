"""Composable analysis-pass pipeline (the successor of the monolithic flow).

The paper's §4 flow — scan → debug control → debug observe → memory map —
is expressed as registered :class:`AnalysisPass` objects over a shared
:class:`PipelineContext` artifact store.  A :class:`Pipeline` resolves pass
dependencies from their ``requires``/``provides`` declarations, runs the
passes in dependency order, memoises per-pass results in an
:class:`ArtifactCache` keyed on the netlist signature plus configuration,
and attributes identified faults to their first source in the paper's fixed
order so Table I is reproduced exactly whatever the pass selection.  The
fault populations inside the passes run on the warm worker pool when
``RunOptions.jobs`` asks for it.

Quickstart::

    import repro
    report = repro.Session().analyze(soc)

or, with explicit control::

    from repro.pipeline import Pipeline

    pipeline = (Pipeline.builder()
                .with_passes("scan_analysis", "memory_analysis")
                .cached()
                .build())
    report = pipeline.run(soc).report

Custom passes register through the :func:`analysis_pass` decorator — see
``examples/custom_pass.py``.
"""

from repro.netlist.compiled import netlist_signature
from repro.pipeline.base import AnalysisPass, FunctionPass, PassResult
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.context import (CONFIG_FACETS, MissingArtifactError,
                                    PipelineContext, SEED_ARTIFACTS)
from repro.pipeline.pipeline import (DependencyCycleError, PassEvent, Pipeline,
                                     PipelineBuilder, PipelineError,
                                     PipelineResult)
from repro.pipeline.registry import (DEFAULT_REGISTRY, PassRegistrationError,
                                     PassRegistry, analysis_pass)
# Importing the built-in passes registers them.
from repro.pipeline.passes import (LEGACY_RUNTIME_KEYS, REPORT_DETAIL_FIELDS,
                                   default_pass_names)

__all__ = [
    "AnalysisPass",
    "FunctionPass",
    "PassResult",
    "ArtifactCache",
    "netlist_signature",
    "PipelineContext",
    "MissingArtifactError",
    "SEED_ARTIFACTS",
    "CONFIG_FACETS",
    "Pipeline",
    "PipelineBuilder",
    "PipelineResult",
    "PipelineError",
    "DependencyCycleError",
    "PassEvent",
    "PassRegistry",
    "PassRegistrationError",
    "DEFAULT_REGISTRY",
    "analysis_pass",
    "default_pass_names",
    "LEGACY_RUNTIME_KEYS",
    "REPORT_DETAIL_FIELDS",
]
