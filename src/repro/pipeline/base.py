"""The analysis-pass abstraction.

An *analysis pass* is one unit of the §4 flow: it consumes artifacts from a
:class:`repro.pipeline.context.PipelineContext` (the netlist, the fault
universe, the baseline-untestable set, ...), produces new artifacts and —
for the passes that model an untestability *source* — a set of identified
faults that the pipeline later attributes in the paper's fixed order.

Passes declare their inputs and outputs (``requires`` / ``provides``
artifact keys) so the pipeline can resolve dependencies, order the passes
and skip the ones whose inputs never appeared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Optional, Protocol, Set, Tuple,
                    runtime_checkable)

from repro.faults.models import Fault


@dataclass
class PassResult:
    """What a pass hands back to the pipeline.

    ``artifacts`` are stored into the context under the pass's declared
    ``provides`` keys.  ``identified`` is the set of faults this pass claims
    as on-line functionally untestable (only meaningful for passes with a
    ``source``); attribution to the first claiming source happens later, in
    the pipeline, deterministically in the paper's order.
    """

    artifacts: Dict[str, Any] = field(default_factory=dict)
    identified: Optional[Set[Fault]] = None
    details: Any = None

    def __post_init__(self) -> None:
        if self.identified is not None:
            self.identified = set(self.identified)


@runtime_checkable
class AnalysisPass(Protocol):
    """Structural protocol every pipeline pass satisfies.

    Attributes
    ----------
    name:
        Unique pass name (registry key, event label, cache key component).
    source:
        The :class:`repro.faults.categories.OnlineUntestableSource` this pass
        models, or ``None`` for foundation/derivation passes.
    requires / provides:
        Artifact keys consumed from / published to the context.
    """

    name: str
    source: Optional[object]
    requires: Tuple[str, ...]
    provides: Tuple[str, ...]

    def run(self, ctx: "PipelineContext") -> PassResult:  # noqa: F821
        ...


class FunctionPass:
    """An :class:`AnalysisPass` built from a plain function.

    Created by the :func:`repro.pipeline.registry.analysis_pass` decorator;
    carries the declared metadata and delegates :meth:`run` to the wrapped
    function.  ``when`` is an optional predicate on the context: when it
    returns ``False`` the pipeline records the pass as *skipped* instead of
    running it (e.g. the memory-map analysis without a memory map).
    """

    def __init__(self, fn: Callable[["PipelineContext"], PassResult],  # noqa: F821
                 name: str,
                 source: Optional[object] = None,
                 requires: Tuple[str, ...] = (),
                 provides: Tuple[str, ...] = (),
                 when: Optional[Callable[["PipelineContext"], bool]] = None,  # noqa: F821
                 cacheable: bool = True,
                 cache_facets: Optional[Tuple[str, ...]] = None,
                 persist: bool = True) -> None:
        self._fn = fn
        self.name = name
        self.source = source
        self.requires = tuple(requires)
        self.provides = tuple(provides)
        self.when = when
        self.cacheable = cacheable
        # Whether the result may be published to a durable artifact store
        # (repro.store).  Passes whose artifacts are process-local handles
        # (unpicklable, or memoised elsewhere) opt out with persist=False;
        # they still use the in-memory cache tier.
        self.persist = persist
        # Which configuration facets influence this pass's result (None =
        # all of them).  A pass that declares e.g. () or ("effort",) stays
        # replayable across scenario variants that only change the facets
        # it does not read — the basis of cross-scenario artifact reuse.
        self.cache_facets = (tuple(cache_facets)
                             if cache_facets is not None else None)
        self.__doc__ = fn.__doc__

    def applicable(self, ctx: "PipelineContext") -> bool:  # noqa: F821
        return self.when is None or bool(self.when(ctx))

    def run(self, ctx: "PipelineContext") -> PassResult:  # noqa: F821
        return self._fn(ctx)

    def __call__(self, ctx: "PipelineContext") -> PassResult:  # noqa: F821
        return self.run(ctx)

    def __repr__(self) -> str:
        return (f"FunctionPass(name={self.name!r}, source={self.source!r}, "
                f"requires={self.requires!r}, provides={self.provides!r})")
