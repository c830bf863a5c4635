"""Configuration objects for the synthetic CPU core and SoC.

Besides the frozen :class:`CpuConfig` / :class:`SoCConfig` dataclasses this
module hosts the *axis* vocabulary used by scenario sweeps: an axis is a
named knob over a :class:`SoCConfig` (core size preset, scan style, debug
interface, memory map, any ``cpu.<field>``) and :func:`expand_axes` turns a
base configuration plus ``{axis: [values, ...]}`` into the cartesian
product of labelled variant configurations.  :class:`repro.api.ScenarioGrid`
builds on these helpers and adds the run-level axes (ATPG effort).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.memory.memory_map import MemoryMap


@dataclass(frozen=True)
class CpuConfig:
    """Parameters of the synthetic processor core.

    The defaults describe the "date13" configuration used for the Table-I
    style benchmark: a 32-bit core with a 32-entry register file, multiplier,
    barrel shifter, branch target buffer, Nexus/JTAG-style debug logic and
    full mux-scan.
    """

    name: str = "e200z0_like"
    data_width: int = 32
    addr_width: int = 32
    instr_width: int = 32
    n_registers: int = 32
    btb_entries: int = 4
    mult_width: int = 32          # operand width of the array multiplier (0 = none)
    has_barrel_shifter: bool = True
    n_special_registers: int = 4  # status/EPC/cause/... block
    # Debug infrastructure inside the core.
    has_debug: bool = True
    debug_shift_length: int = 32  # JTAG-fed debug data register length
    # Scan insertion.
    scan_chains: int = 4
    scan_buffer_every: int = 4

    @property
    def register_select_bits(self) -> int:
        return max(1, (self.n_registers - 1).bit_length())

    @property
    def btb_index_bits(self) -> int:
        return max(1, (self.btb_entries - 1).bit_length())

    @property
    def opcode_bits(self) -> int:
        return 5

    def validate(self) -> None:
        if self.data_width < 4:
            raise ValueError("data_width must be at least 4")
        if self.addr_width < 4:
            raise ValueError("addr_width must be at least 4")
        if self.instr_width < self.opcode_bits + 3 * self.register_select_bits:
            raise ValueError(
                "instr_width too small for opcode plus three register fields")
        if self.n_registers < 2:
            raise ValueError("n_registers must be at least 2")
        if self.btb_entries < 1:
            raise ValueError("btb_entries must be at least 1")
        if self.mult_width > self.data_width:
            raise ValueError("mult_width cannot exceed data_width")

    # ------------------------------------------------------------------ #
    # presets
    # ------------------------------------------------------------------ #
    @classmethod
    def tiny(cls) -> "CpuConfig":
        """A few hundred gates — used by unit tests and quick examples."""
        return cls(name="tiny_core", data_width=8, addr_width=8, instr_width=16,
                   n_registers=4, btb_entries=2, mult_width=0,
                   has_barrel_shifter=False, n_special_registers=2,
                   debug_shift_length=8, scan_chains=1, scan_buffer_every=2)

    @classmethod
    def small(cls) -> "CpuConfig":
        """A few thousand gates — integration tests and the SBST experiments."""
        return cls(name="small_core", data_width=16, addr_width=16, instr_width=24,
                   n_registers=8, btb_entries=4, mult_width=8,
                   has_barrel_shifter=True, n_special_registers=3,
                   debug_shift_length=16, scan_chains=2, scan_buffer_every=4)

    @classmethod
    def date13(cls) -> "CpuConfig":
        """The benchmark configuration approximating the paper's case study."""
        return cls()


#: The named axes :meth:`SoCConfig.with_axis` applies, besides
#: ``cpu.<field>`` and ``config`` (an alias of ``size``).
CONFIG_AXES = ("size", "scan", "debug", "memory_map", "insert_scan")


@dataclass(frozen=True)
class SoCConfig:
    """The CPU configuration plus the mission environment around it."""

    cpu: CpuConfig = field(default_factory=CpuConfig)
    memory_map: Optional[MemoryMap] = None
    insert_scan: bool = True

    def __post_init__(self) -> None:
        self.cpu.validate()

    def resolved_memory_map(self) -> MemoryMap:
        if self.memory_map is not None:
            return self.memory_map
        if self.cpu.addr_width >= 32:
            return MemoryMap.date13_case_study()
        # Scale the two-region idea down to narrow address buses: a small
        # "flash" at the bottom and a small "sram" in the upper half.
        quarter = 1 << (self.cpu.addr_width - 2)
        from repro.memory.memory_map import MemoryRegion
        return MemoryMap(address_width=self.cpu.addr_width, regions=[
            MemoryRegion("flash", 0, quarter // 2),
            MemoryRegion("sram", 2 * quarter, quarter // 4),
        ])

    # ------------------------------------------------------------------ #
    @classmethod
    def tiny(cls) -> "SoCConfig":
        return cls(cpu=CpuConfig.tiny())

    @classmethod
    def small(cls) -> "SoCConfig":
        return cls(cpu=CpuConfig.small())

    @classmethod
    def date13(cls) -> "SoCConfig":
        return cls(cpu=CpuConfig.date13(), memory_map=MemoryMap.date13_case_study())

    @classmethod
    def named_configs(cls) -> dict:
        """Name -> factory for every preset configuration."""
        return {"tiny": cls.tiny, "small": cls.small, "date13": cls.date13}

    @classmethod
    def from_name(cls, name: str) -> "SoCConfig":
        """Look up a preset configuration by name (CLI / scripting entry)."""
        try:
            return cls.named_configs()[name]()
        except KeyError:
            known = ", ".join(sorted(cls.named_configs()))
            raise ValueError(
                f"unknown SoC configuration {name!r}; available: {known}"
            ) from None

    def with_cpu(self, **overrides) -> "SoCConfig":
        """Return a copy with CPU parameters replaced (used by ablations)."""
        return SoCConfig(cpu=replace(self.cpu, **overrides),
                         memory_map=self.memory_map,
                         insert_scan=self.insert_scan)

    def with_axis(self, axis: str, value: object) -> "SoCConfig":
        """Return a copy with one scenario *axis* applied.

        Recognised axes:

        ``size`` (alias ``config``)
            A preset name (``tiny``/``small``/``date13``) or a
            :class:`CpuConfig` — replaces the CPU, keeping this config's
            memory map and scan choice.
        ``scan``
            ``bool`` toggles scan insertion; an ``int`` sets the number of
            scan chains (implying insertion).
        ``debug``
            ``bool`` — whether the core embeds the debug logic.
        ``memory_map``
            A :class:`MemoryMap` (or ``None`` to fall back to the derived
            default).
        ``insert_scan`` or ``cpu.<field>``
            Direct field overrides (e.g. ``cpu.mult_width``).
        """
        if axis in ("size", "config"):
            cpu = (self.from_name(value).cpu if isinstance(value, str)
                   else value)
            if not isinstance(cpu, CpuConfig):
                raise ValueError(
                    f"axis {axis!r} expects a preset name or CpuConfig, "
                    f"got {value!r}")
            return SoCConfig(cpu=cpu, memory_map=self.memory_map,
                             insert_scan=self.insert_scan)
        if axis == "scan":
            if isinstance(value, bool):
                return SoCConfig(cpu=self.cpu, memory_map=self.memory_map,
                                 insert_scan=value)
            if isinstance(value, int):
                return SoCConfig(cpu=replace(self.cpu, scan_chains=value),
                                 memory_map=self.memory_map, insert_scan=True)
            raise ValueError(
                f"axis 'scan' expects a bool or chain count, got {value!r}")
        if axis == "debug":
            return self.with_cpu(has_debug=bool(value))
        if axis == "memory_map":
            if value is not None and not isinstance(value, MemoryMap):
                raise ValueError(
                    f"axis 'memory_map' expects a MemoryMap or None (the "
                    f"derived default), got {value!r}")
            return SoCConfig(cpu=self.cpu, memory_map=value,
                             insert_scan=self.insert_scan)
        if axis == "insert_scan":
            return SoCConfig(cpu=self.cpu, memory_map=self.memory_map,
                             insert_scan=bool(value))
        if axis.startswith("cpu."):
            name = axis[len("cpu."):]
            if name not in {f.name for f in fields(CpuConfig)}:
                raise ValueError(
                    f"unknown scenario axis {axis!r}: CpuConfig has no "
                    f"field {name!r}")
            # Every CpuConfig field defaults to a str, int or bool value;
            # a bool field also takes 0 and 1 (``--axis cpu.has_debug=0,1``).
            expected = type(getattr(self.cpu, name))
            if expected is bool and type(value) is int and value in (0, 1):
                value = bool(value)
            if not isinstance(value, expected) or (
                    expected is int and isinstance(value, bool)):
                raise ValueError(
                    f"axis {axis!r} expects a value of type {expected.__name__}, "
                    f"got {value!r}")
            try:
                return self.with_cpu(**{name: value})
            except ValueError as exc:
                raise ValueError(
                    f"bad value for axis {axis!r}: {exc}") from None
        raise ValueError(
            f"unknown scenario axis {axis!r}; expected "
            f"{', '.join(CONFIG_AXES)} or cpu.<field>")


def axis_value_label(value: object) -> str:
    """A short, stable label for one axis value (used in scenario names)."""
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, CpuConfig):
        return value.name
    if isinstance(value, MemoryMap):
        return f"map{value.address_width}"
    if value is None:
        return "default"
    return getattr(value, "value", None) or str(value)


def expand_axes(base: SoCConfig,
                axes: Mapping[str, Sequence[object]]
                ) -> Iterator[Tuple[str, SoCConfig]]:
    """Expand a base config over config-level axes (cartesian product).

    Yields ``(label, config)`` pairs in deterministic order — axis order as
    given, values in their listed order.  An empty axis mapping yields the
    single degenerate point with an empty label.
    """
    names: List[str] = list(axes)
    for axis, values in axes.items():
        if not values:
            raise ValueError(f"scenario axis {axis!r} has no values")
    for point in itertools.product(*(axes[name] for name in names)):
        config = base
        parts = []
        for axis, value in zip(names, point):
            config = config.with_axis(axis, value)
            parts.append(f"{axis}={axis_value_label(value)}")
        yield ",".join(parts), config
