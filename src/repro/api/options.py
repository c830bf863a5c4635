"""One frozen bundle for every per-run knob: :class:`RunOptions`.

Six PRs of plumbing grew scattered keywords (``jobs``, ``fault_model``,
``static_prune``, ``store``, ``effort``) across
``Session(...)``, ``Session.analyze(...)`` and the process-executor
boundary; the ATPG portfolio adds two more (``atpg_backend``,
``atpg_seed``).  :class:`RunOptions` consolidates them:

* ``Session(options=RunOptions(...))`` and ``analyze(options=...)`` accept
  the bundle directly;
* it crosses the :class:`~repro.api.session.ProcessExecutor` boundary as
  one picklable value;
* every existing keyword spelling keeps working through a deprecation
  shim (:func:`warn_legacy_keyword`) that warns once per keyword per
  process and folds the value into a RunOptions.

Every field is optional; ``None`` means "unset — defer to the next layer's
default" exactly like the scattered keywords did, so folding and merging
never invent a value.  :func:`resolve_effort` lives here too (moved from
:mod:`repro.atpg.engine`, which keeps a delegating re-export): it is
consumed by the API layer, the grid and the CLI, not by the engine's inner
loops.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from typing import Any, Optional, Set, Union

from repro.atpg.engine import AtpgEffort


def resolve_effort(effort: object,
                   default: Optional[AtpgEffort] = None
                   ) -> Optional[AtpgEffort]:
    """Coerce an effort spec (enum member, string or None) to an enum member.

    The single effort parser shared by :func:`repro.analyze`, the
    :class:`repro.api.Session` defaults, the scenario-grid expansion and the
    CLI.  ``None`` resolves to ``default``; strings are matched
    case-insensitively against the enum values.  Unknown efforts raise a
    :class:`ValueError` spelling the accepted values.
    """
    if effort is None:
        return default
    if isinstance(effort, AtpgEffort):
        return effort
    try:
        return AtpgEffort(str(effort).strip().lower())
    except ValueError:
        names = ", ".join(e.value for e in AtpgEffort)
        raise ValueError(
            f"unknown ATPG effort {effort!r}; expected one of: {names}"
        ) from None


@dataclass(frozen=True)
class RunOptions:
    """Every per-run knob, normalized, in one frozen picklable value.

    Construction validates each field eagerly (unknown efforts, fault
    models and ATPG backends, and ``jobs`` below 1, raise the same errors
    as the keywords they replace), so a bad bundle fails at the call
    site, not deep inside a worker process.
    """

    effort: Union[AtpgEffort, str, None] = None
    fault_model: Optional[str] = None
    #: Worker count of the fault-population engines: 1 is the serial
    #: reference, more runs cone-affine chunks on the warm worker pool
    #: (:mod:`repro.runtime`) with identical results.
    jobs: Optional[int] = None
    static_prune: Optional[bool] = None
    static_learning: Optional[bool] = None
    store: Any = None
    atpg_backend: Optional[str] = None
    atpg_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.effort is not None:
            object.__setattr__(self, "effort", resolve_effort(self.effort))
        if self.fault_model is not None:
            from repro.faults.models import resolve_fault_model

            object.__setattr__(
                self, "fault_model",
                resolve_fault_model(self.fault_model).name)
        if self.jobs is not None:
            from repro.simulation.sharded import resolve_jobs

            object.__setattr__(self, "jobs",
                               resolve_jobs(int(self.jobs), cap=False))
        if self.static_prune is not None:
            object.__setattr__(self, "static_prune", bool(self.static_prune))
        if self.static_learning is not None:
            object.__setattr__(
                self, "static_learning", bool(self.static_learning))
        if self.atpg_backend is not None:
            from repro.atpg.portfolio import resolve_atpg_backend

            object.__setattr__(
                self, "atpg_backend",
                resolve_atpg_backend(self.atpg_backend).name)
        if self.atpg_seed is not None:
            object.__setattr__(self, "atpg_seed", int(self.atpg_seed))

    # ------------------------------------------------------------------ #
    def merged_with(self, other: Optional["RunOptions"]) -> "RunOptions":
        """A new bundle where ``other``'s set (non-None) fields win."""
        if other is None:
            return self
        updates = {f.name: getattr(other, f.name) for f in fields(self)
                   if getattr(other, f.name) is not None}
        return replace(self, **updates) if updates else self

    def with_store_spec(self) -> "RunOptions":
        """A copy whose ``store`` is reduced to a picklable spec string.

        A live :class:`~repro.store.base.ArtifactStore` instance does not
        cross process boundaries; its location string does, and the worker
        re-opens the same on-disk store from it.
        """
        store = self.store
        if store is None or isinstance(store, str):
            return self
        root = getattr(store, "root", None)
        return replace(self, store=str(root) if root is not None else None)


#: Keywords already warned about in this process (one warning per spelling).
_WARNED_KEYWORDS: Set[str] = set()


def warn_legacy_keyword(name: str, *, context: str,
                        stacklevel: int = 4) -> None:
    """Emit the once-per-process deprecation warning for a legacy keyword."""
    if name in _WARNED_KEYWORDS:
        return
    _WARNED_KEYWORDS.add(name)
    warnings.warn(
        f"the {context} keyword {name!r} is deprecated; bundle it as "
        f"repro.api.RunOptions({name}=...) and pass options=... instead "
        f"(legacy keywords keep working through this shim for now)",
        DeprecationWarning, stacklevel=stacklevel)


def reset_legacy_keyword_warnings() -> None:
    """Test hook: re-arm the once-per-process keyword warnings."""
    _WARNED_KEYWORDS.clear()


def fold_legacy_kwargs(context: str, options: Optional[RunOptions] = None,
                       *, warn: bool = True, stacklevel: int = 4,
                       **legacy: Any) -> RunOptions:
    """Fold legacy keyword values into one RunOptions bundle.

    ``None`` values are "not provided" (the historical default of every
    keyword) and neither warn nor contribute.  An explicit ``options=``
    bundle wins over any legacy spelling of the same field.  Internal
    callers that merely forward plumbing pass ``warn=False`` — the shim
    warns at the public surface, once, not on every internal hop.
    """
    provided = {name: value for name, value in legacy.items()
                if value is not None}
    if warn:
        for name in sorted(provided):
            warn_legacy_keyword(name, context=context,
                                stacklevel=stacklevel + 1)
    base = RunOptions(**provided)
    return base.merged_with(options)
