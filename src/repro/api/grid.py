"""Scenario grids — declarative sweeps over SoC variants.

A :class:`ScenarioGrid` is a base :class:`~repro.soc.config.SoCConfig` plus
named *axes*, each a list of values.  Expansion takes the cartesian product
in deterministic order and yields labelled :class:`Scenario` points:

* config-level axes (``size``, ``scan``, ``debug``, ``memory_map``,
  ``cpu.<field>``, ...) are applied through
  :meth:`repro.soc.config.SoCConfig.with_axis`;
* the run-level axes (:data:`~repro.api.options.RUN_AXES`: ``effort``,
  ``fault_model``, ``atpg_backend``) set the scenario's
  :class:`~repro.api.RunOptions`, normalised by each knob's declaration.

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
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from repro.api.options import RUN_AXES, RunOptions, normalise_knob
from repro.soc.config import CONFIG_AXES, SoCConfig, expand_axes


def _run_label(value: object) -> str:
    """The stable spelling of a run-axis value in scenario labels."""
    return str(getattr(value, "value", value))


@dataclass(frozen=True)
class Scenario:
    """One expanded grid point: a labelled config plus its run-level knobs.

    Scenarios are plain picklable values — a ``jobs > 1`` sweep ships
    them to pool workers, which regenerate the SoC from :attr:`config`
    there.
    """

    label: str
    config: SoCConfig
    #: The scenario's run-axis values; unset fields keep the sweep's and
    #: the session's options.
    options: RunOptions = field(default_factory=RunOptions)
    index: int = 0


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
        if name in RUN_AXES:
            try:
                values = [normalise_knob(name, v) for v in values]
            except ValueError as exc:
                raise ValueError(
                    f"bad value for axis {name!r}: {exc}") from None
        elif (name not in CONFIG_AXES and name != "config"
              and not name.startswith("cpu.")):
            raise ValueError(
                f"unknown scenario axis {name!r}; expected "
                f"{', '.join(RUN_AXES + CONFIG_AXES)} or cpu.<field>")
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
            for run_values in itertools.product(*run_axes):
                knobs = {name: value for name, value
                         in zip(RUN_AXES, run_values) if value is not None}
                parts = [config_label] if config_label else []
                parts.extend(f"{name}={_run_label(value)}"
                             for name, value in knobs.items())
                label = (f"{self.base_name}[{','.join(parts)}]" if parts
                         else self.base_name)
                points.append(Scenario(label=label, config=config,
                                       options=RunOptions(**knobs),
                                       index=len(points)))
        return points

    def __repr__(self) -> str:
        axes = ", ".join(f"{name}×{len(values)}"
                         for name, values in self._axes.items()) or "degenerate"
        return f"ScenarioGrid({self.base_name!r}, {axes}, {len(self)} points)"
