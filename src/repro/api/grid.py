"""Scenario grids — declarative sweeps over SoC variants.

A :class:`ScenarioGrid` is a base :class:`~repro.soc.config.SoCConfig` plus
named *axes*, each a list of values.  Expansion takes the cartesian product
in deterministic order and yields labelled :class:`Scenario` points:

* config-level axes (``size``, ``scan``, ``debug``, ``memory_map``,
  ``cpu.<field>``, ...) are applied through
  :meth:`repro.soc.config.SoCConfig.with_axis`;
* the run-level ``effort`` axis selects the ATPG effort of the structural
  engine per scenario.

::

    grid = (ScenarioGrid("small")
            .axis("debug", [True, False])
            .axis("effort", ["tie", "random"]))
    for scenario in grid:          # 4 points
        print(scenario.label)

A grid with no axes is the degenerate single-point sweep of its base
configuration — useful because it makes ``Session.sweep`` a strict
generalisation of ``Session.analyze``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from repro.atpg.engine import AtpgEffort, resolve_effort
from repro.faults.models import resolve_fault_model
from repro.soc.config import SoCConfig, axis_value_label, expand_axes

#: The axes expanded at run level rather than into the SoC configuration:
#: the ATPG effort, the fault model, the static-prune knob and the ATPG
#: portfolio backend select *how* a scenario is analyzed without changing
#: the generated SoC.
RUN_AXES = ("effort", "fault_model", "static_prune", "atpg_backend")


def _resolve_flag(name: str, value: object) -> bool:
    """Coerce a boolean axis value, accepting the CLI spellings.

    ``bool("off")`` is ``True`` — accepting raw strings here would turn a
    programmatic ``axis("static_prune", ["on", "off"])`` into two
    identical scenarios, so strings are resolved like the CLI resolves
    them and anything unrecognised is rejected.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "on", "yes", "1"):
            return True
        if lowered in ("false", "off", "no", "0"):
            return False
    raise ValueError(f"bad value {value!r} for boolean axis {name!r}")


@dataclass(frozen=True)
class Scenario:
    """One expanded grid point: a labelled config plus run-level knobs.

    Scenarios are plain picklable values — a
    :class:`~repro.api.ProcessExecutor` ships them to worker processes,
    which regenerate the SoC from :attr:`config` there.
    """

    label: str
    config: SoCConfig
    effort: Optional[AtpgEffort] = None
    index: int = 0
    #: Fault-model registry name ("stuck_at", "transition", ...); None
    #: keeps the session/flow default.  Declared after ``index`` so the
    #: pre-existing positional construction order is preserved.
    fault_model: Optional[str] = None
    #: Static pre-PODEM pruning (FULL effort only); None keeps the
    #: session/flow default (on).  Appended last for the same reason.
    static_prune: Optional[bool] = None
    #: ATPG portfolio backend registry name ("podem", "podem-restart",
    #: "dalg"); None keeps the session/flow default.  Appended last for
    #: the same reason.
    atpg_backend: Optional[str] = None

    def build_design(self):
        from repro.api.design import Design
        return Design.from_config(self.config, label=self.label)


class ScenarioGrid:
    """Cartesian product of scenario axes over a base configuration."""

    def __init__(self, base="date13",
                 axes: Optional[Mapping[str, Sequence[object]]] = None,
                 name: Optional[str] = None) -> None:
        if isinstance(base, str):
            self.base_name = base
            self.base = SoCConfig.from_name(base)
        elif isinstance(base, SoCConfig):
            self.base_name = base.cpu.name
            self.base = base
        else:
            raise TypeError(
                f"grid base must be a SoCConfig or preset name, "
                f"got {type(base).__name__}")
        self.name = name or self.base_name
        self._axes: Dict[str, List[object]] = {}
        for axis, values in (axes or {}).items():
            self.axis(axis, values)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def axis(self, name: str, values: Sequence[object]) -> "ScenarioGrid":
        """Add (or replace) an axis; returns ``self`` for chaining."""
        values = list(values)
        if not values:
            raise ValueError(f"scenario axis {name!r} has no values")
        if name == "effort":
            values = [resolve_effort(v) for v in values]
        elif name == "fault_model":
            values = [resolve_fault_model(v).name for v in values]
        elif name == "static_prune":
            values = [_resolve_flag(name, v) for v in values]
        elif name == "atpg_backend":
            from repro.atpg.portfolio import resolve_atpg_backend
            values = [resolve_atpg_backend(v).name for v in values]
        else:
            # Validate config axes eagerly — a typo should fail at grid
            # construction, not halfway through a long sweep.
            for value in values:
                self.base.with_axis(name, value)
        self._axes[name] = values
        return self

    @property
    def axes(self) -> Dict[str, List[object]]:
        return dict(self._axes)

    # ------------------------------------------------------------------ #
    # expansion
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        total = 1
        for values in self._axes.values():
            total *= len(values)
        return total

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios())

    def scenarios(self) -> List[Scenario]:
        """Expand to the full labelled scenario list (deterministic order)."""
        config_axes = {name: values for name, values in self._axes.items()
                       if name not in RUN_AXES}
        run_axes = [self._axes.get(name) or [None] for name in RUN_AXES]

        points: List[Scenario] = []
        for config_label, config in expand_axes(self.base, config_axes):
            for (effort, fault_model, static_prune,
                 atpg_backend) in itertools.product(*run_axes):
                parts = [config_label] if config_label else []
                if effort is not None:
                    parts.append(f"effort={axis_value_label(effort)}")
                if fault_model is not None:
                    parts.append(f"fault_model={fault_model}")
                if static_prune is not None:
                    parts.append(f"static_prune={int(static_prune)}")
                if atpg_backend is not None:
                    parts.append(f"atpg_backend={atpg_backend}")
                label = (f"{self.base_name}[{','.join(parts)}]" if parts
                         else self.base_name)
                points.append(
                    Scenario(label=label, config=config, effort=effort,
                             fault_model=fault_model,
                             static_prune=static_prune,
                             atpg_backend=atpg_backend,
                             index=len(points)))
        return points

    def __repr__(self) -> str:
        axes = ", ".join(f"{name}×{len(values)}"
                         for name, values in self._axes.items()) or "degenerate"
        return f"ScenarioGrid({self.base_name!r}, {axes}, {len(self)} points)"
