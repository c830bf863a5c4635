"""Decorator-based registry of analysis passes.

The four paper analyses register themselves here at import time; user code
adds passes the same way::

    from repro.pipeline import PassResult, analysis_pass

    @analysis_pass(name="reset_tree", source="reset",
                   requires=("fault_universe", "baseline_untestable"),
                   provides=("reset_result",))
    def reset_tree(ctx):
        ...
        return PassResult(artifacts={"reset_result": result},
                          identified=result.newly_untestable)

A registered pass can then be selected by name when building a
:class:`repro.pipeline.pipeline.Pipeline` (or via
``Session().analyze(..., passes=[...])``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.pipeline.base import AnalysisPass, FunctionPass, PassResult


class PassRegistrationError(ValueError):
    """Raised on duplicate or malformed pass registrations."""


class PassRegistry:
    """Name -> pass mapping with provider lookup by artifact key."""

    def __init__(self) -> None:
        self._passes: Dict[str, AnalysisPass] = {}

    def register(self, pass_: AnalysisPass) -> AnalysisPass:
        name = getattr(pass_, "name", None)
        if not name or not isinstance(name, str):
            raise PassRegistrationError(
                f"pass {pass_!r} has no usable name")
        if name in self._passes:
            raise PassRegistrationError(
                f"a pass named {name!r} is already registered")
        self._passes[name] = pass_
        return pass_

    def unregister(self, name: str) -> None:
        self._passes.pop(name, None)

    def get(self, name: str) -> AnalysisPass:
        try:
            return self._passes[name]
        except KeyError:
            known = ", ".join(sorted(self._passes)) or "<none>"
            raise KeyError(
                f"unknown analysis pass {name!r}; registered passes: {known}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._passes

    def names(self) -> List[str]:
        """Registered pass names, in registration order."""
        return list(self._passes)

    def passes(self) -> List[AnalysisPass]:
        return list(self._passes.values())

    def provider_of(self, artifact: str) -> Optional[AnalysisPass]:
        """The first registered pass that provides ``artifact`` (or None)."""
        for pass_ in self._passes.values():
            if artifact in pass_.provides:
                return pass_
        return None


#: The default process-wide registry (the paper's passes live here).
DEFAULT_REGISTRY = PassRegistry()


def analysis_pass(name: str,
                  *,
                  source: Optional[object] = None,
                  requires: Iterable[str] = (),
                  provides: Iterable[str] = (),
                  when: Optional[Callable] = None,
                  cacheable: bool = True,
                  cache_facets: Optional[Iterable[str]] = None,
                  persist: bool = True,
                  registry: Optional[PassRegistry] = None
                  ) -> Callable[[Callable], FunctionPass]:
    """Decorator turning ``fn(ctx) -> PassResult`` into a registered pass.

    ``cache_facets`` names the configuration facets (see
    :data:`repro.pipeline.context.CONFIG_FACETS`) that influence the pass's
    result; omit it to key on the full configuration (always safe).
    """
    target_registry = registry if registry is not None else DEFAULT_REGISTRY

    def decorate(fn: Callable[..., PassResult]) -> FunctionPass:
        pass_ = FunctionPass(fn, name=name, source=source,
                             requires=tuple(requires), provides=tuple(provides),
                             when=when, cacheable=cacheable,
                             cache_facets=(tuple(cache_facets)
                                           if cache_facets is not None
                                           else None),
                             persist=persist)
        target_registry.register(pass_)
        return pass_

    return decorate
