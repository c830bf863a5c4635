"""The typed artifact store passes read from and publish into.

A :class:`PipelineContext` is created per pipeline run.  It seeds the run
inputs (netlist, memory map, the paper's flow switches, the resolved run
options, an optional restricted fault universe), collects every artifact
passes publish, and — when the pipeline owns an
:class:`repro.pipeline.cache.ArtifactCache` — computes the cache key
under which each pass's result is memoised.

Artifact access is thread-safe: independent passes run concurrently in
the parallel pipeline and publish their artifacts from worker threads.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Union

from repro.core.results import FlowConfig
from repro.faults.models import Fault
from repro.memory.memory_map import MemoryMap
from repro.netlist.module import Netlist
from repro.pipeline.cache import (ArtifactCache, CacheKey,
                                  fault_restriction_key, memory_map_key,
                                  netlist_signature)

if TYPE_CHECKING:  # pragma: no cover - repro.api imports this package
    from repro.api.options import RunOptions


class MissingArtifactError(KeyError):
    """A pass asked for an artifact nothing has produced."""

    def __init__(self, key: str, available: Iterable[str]) -> None:
        listed = ", ".join(sorted(available)) or "<none>"
        super().__init__(
            f"artifact {key!r} is not in the pipeline context "
            f"(available: {listed})")
        self.key = key


#: Artifact keys seeded by the context itself (no pass provides them).
SEED_ARTIFACTS = ("netlist", "memory_map", "config")

#: The configuration facets a pass result can depend on, in canonical key
#: order.  Passes narrow their cache key to a subset via ``cache_facets``
#: (see :func:`repro.pipeline.registry.analysis_pass`): an effort-blind
#: pass such as ``scan_analysis`` then replays from cache across scenario
#: variants that only change the ATPG effort or the memory map.  ``model``
#: is the fault model: every pass that touches the fault universe keys on
#: it, so stuck-at and transition runs of one netlist never share results.
CONFIG_FACETS = ("model", "effort", "ties", "memmap", "faults", "static",
                 "atpg")


class PipelineContext:
    """Run-scoped artifact store with typed accessors for the seed inputs."""

    def __init__(self, netlist: Netlist,
                 config: Optional[FlowConfig] = None,
                 memory_map: Optional[MemoryMap] = None,
                 initial_faults: Optional[Iterable[Fault]] = None,
                 cache: Optional[ArtifactCache] = None,
                 options: Optional[RunOptions] = None) -> None:
        self.netlist = netlist
        self.config = config or FlowConfig()
        from repro.api.options import DEFAULT_RUN_OPTIONS

        #: The run knobs, every unset field filled from the defaults.
        self.options = DEFAULT_RUN_OPTIONS.merged_with(options)
        self.memory_map = memory_map
        self.initial_faults: Optional[List[Fault]] = (
            list(initial_faults) if initial_faults is not None else None)
        self.cache = cache
        self._artifacts: Dict[str, Any] = {
            "netlist": netlist,
            "memory_map": memory_map,
            "config": self.config,
        }
        self._lock = threading.Lock()
        self._signature: Optional[str] = None
        self._facet_fragments: Optional[Dict[str, str]] = None

    # ------------------------------------------------------------------ #
    # artifact store
    # ------------------------------------------------------------------ #
    def has(self, key: str) -> bool:
        with self._lock:
            return key in self._artifacts

    def get(self, key: str, default: Any = None) -> Any:
        with self._lock:
            return self._artifacts.get(key, default)

    def require(self, key: str) -> Any:
        """Like :meth:`get` but raises :class:`MissingArtifactError`."""
        with self._lock:
            if key not in self._artifacts:
                raise MissingArtifactError(key, self._artifacts)
            return self._artifacts[key]

    def set(self, key: str, value: Any) -> None:
        with self._lock:
            self._artifacts[key] = value

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._artifacts)

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            return dict(self._artifacts)

    # typed conveniences for the common artifacts ----------------------- #
    @property
    def effort(self):
        return self.options.effort

    @property
    def fault_model(self):
        """The resolved :class:`~repro.faults.models.FaultModel` of this run."""
        from repro.faults.models import resolve_fault_model

        return resolve_fault_model(self.options.fault_model)

    @property
    def engine_options(self) -> Dict[str, Any]:
        """The run knobs the classification engines take as keywords."""
        opts = self.options
        return {"effort": opts.effort, "jobs": opts.jobs,
                "static_prune": opts.static_prune,
                "static_learning": opts.static_learning,
                "atpg_backend": opts.atpg_backend,
                "atpg_seed": opts.atpg_seed}

    @property
    def fault_universe(self) -> List[Fault]:
        return self.require("fault_universe")

    @property
    def fault_set(self):
        return self.require("fault_set")

    @property
    def baseline_untestable(self):
        return self.require("baseline_untestable")

    # ------------------------------------------------------------------ #
    # caching
    # ------------------------------------------------------------------ #
    @property
    def compiled(self):
        """The shared :class:`~repro.netlist.compiled.CompiledNetlist` of the
        target netlist.

        Resolved through the global signature-keyed compile cache, so every
        pass of this run — and every sibling scenario of a Session sweep
        targeting a structurally identical netlist — consumes one build.
        """
        from repro.netlist.compiled import get_compiled

        return get_compiled(self.netlist)

    @property
    def signature(self) -> str:
        """Structural signature of the target netlist (computed once)."""
        if self._signature is None:
            self._signature = netlist_signature(self.netlist)
        return self._signature

    def _fragments(self) -> Dict[str, str]:
        if self._facet_fragments is None:
            cfg, opts = self.config, self.options
            self._facet_fragments = {
                "model": f"model={self.fault_model.name}",
                "effort": f"effort={opts.effort.name}",
                "ties": (f"tie_out={int(cfg.tie_flop_outputs)};"
                         f"tie_in={int(cfg.tie_flop_inputs)}"),
                "memmap": f"memmap={memory_map_key(self.memory_map)}",
                "faults": f"faults={fault_restriction_key(self.initial_faults)}",
                "static": (f"static=prune{int(opts.static_prune)}:"
                           f"learn{int(opts.static_learning)}"),
                "atpg": (f"atpg={opts.atpg_backend or 'podem'}:"
                         f"{opts.atpg_seed if opts.atpg_seed is not None else 'engine'}"),
            }
        return self._facet_fragments

    def config_key_for(self, facets: Optional[Iterable[str]] = None) -> str:
        """The configuration key restricted to the given facets.

        ``None`` keys on every facet (the always-safe default); an explicit
        subset — canonicalised to :data:`CONFIG_FACETS` order — lets a pass
        that is blind to e.g. the ATPG effort share its cached result across
        scenario variants that only differ there.
        """
        fragments = self._fragments()
        if facets is None:
            wanted = CONFIG_FACETS
        else:
            requested = set(facets)
            unknown = requested - set(CONFIG_FACETS)
            if unknown:
                raise ValueError(
                    f"unknown cache facet(s) {sorted(unknown)}; "
                    f"known facets: {', '.join(CONFIG_FACETS)}")
            wanted = tuple(f for f in CONFIG_FACETS if f in requested)
        return ";".join(fragments[f] for f in wanted)

    @property
    def config_key(self) -> str:
        """The full configuration key (every facet that can influence a pass)."""
        return self.config_key_for(None)

    def cache_key(self, pass_: Union[str, "AnalysisPass"]) -> CacheKey:
        """Cache key for a pass — facet-restricted when the pass declares so."""
        if isinstance(pass_, str):
            return (self.signature, self.config_key, pass_)
        facets = getattr(pass_, "cache_facets", None)
        return (self.signature, self.config_key_for(facets), pass_.name)
