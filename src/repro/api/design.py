"""The :class:`Design` handle — an immutable, signed analysis target.

A :class:`Design` bundles everything one scenario of the paper's flow needs:
the (scan-inserted) core netlist, the :class:`~repro.soc.config.SoCConfig`
it was generated from (when known), the mission memory map, and the
scan/debug metadata discovered at build time.  It exposes a stable
*content signature* — a digest of the netlist structure plus the memory
map — under which :class:`repro.api.Session` keys cross-scenario artifact
reuse: two designs with equal signatures replay each other's cached pass
results.

Designs are cheap value-style handles: every ``with_*``/factory call
returns a new object, and the wrapped netlist must not be mutated after
the design is created (the signature is computed once and trusted).  A
:class:`repro.api.Session` hands out one shared design per preset name or
:class:`~repro.soc.config.SoCConfig`, so a design's netlist is shared
state: mutate ``design.netlist.clone()`` instead, as every manipulation
pass already does.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.memory.memory_map import MemoryMap
from repro.netlist.compiled import netlist_signature
from repro.netlist.module import Netlist
from repro.pipeline.cache import memory_map_key
from repro.soc.config import SoCConfig
from repro.soc.soc_builder import SoC, build_soc


class Design:
    """Immutable handle on one analysis target (netlist + mission context)."""

    __slots__ = ("_netlist", "_config", "_memory_map", "_debug_interface",
                 "_scan", "_label", "_signature")

    def __init__(self, netlist: Netlist,
                 *,
                 config: Optional[SoCConfig] = None,
                 memory_map: Optional[MemoryMap] = None,
                 debug_interface=None,
                 scan=None,
                 label: Optional[str] = None) -> None:
        self._netlist = netlist
        self._config = config
        self._memory_map = memory_map
        self._debug_interface = debug_interface
        self._scan = scan
        self._label = label
        self._signature: Optional[str] = None

    # ------------------------------------------------------------------ #
    # factories
    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(cls, config: SoCConfig,
                    label: Optional[str] = None) -> "Design":
        """Generate the SoC for ``config`` and wrap it.

        Designs built this way carry their :attr:`config` as a *rebuild
        spec*, which is what lets a ``jobs > 1`` sweep regenerate them
        inside pool workers instead of pickling whole netlists.
        """
        return cls.from_soc(build_soc(config), label=label)

    @classmethod
    def from_soc(cls, soc: SoC, label: Optional[str] = None) -> "Design":
        return cls(soc.cpu, config=soc.config, memory_map=soc.memory_map,
                   debug_interface=soc.debug_interface, scan=soc.scan,
                   label=label or soc.name)

    @classmethod
    def from_netlist(cls, netlist: Netlist,
                     memory_map: Optional[MemoryMap] = None,
                     label: Optional[str] = None) -> "Design":
        """Wrap a bare netlist (memory map falls back to its annotation)."""
        return cls(netlist,
                   memory_map=(memory_map if memory_map is not None
                               else netlist.annotations.get("memory_map")),
                   label=label or netlist.name)

    @classmethod
    def coerce(cls, target,
               memory_map: Optional[MemoryMap] = None,
               label: Optional[str] = None) -> "Design":
        """Build a :class:`Design` from any accepted target spelling.

        Accepts an existing ``Design`` (returned as-is unless a memory-map
        override forces a rewrap), a :class:`~repro.soc.soc_builder.SoC`, a
        bare :class:`~repro.netlist.module.Netlist`, a
        :class:`~repro.soc.config.SoCConfig`, or a named preset string
        (``"tiny"`` / ``"small"`` / ``"date13"``).
        """
        if isinstance(target, cls):
            if memory_map is None:
                return target
            return target._rewrap(memory_map, label or target.label)
        if isinstance(target, SoC):
            design = cls.from_soc(target, label=label)
            return design if memory_map is None else cls.coerce(
                design, memory_map=memory_map, label=label)
        if isinstance(target, Netlist):
            return cls.from_netlist(target, memory_map=memory_map, label=label)
        if isinstance(target, SoCConfig):
            design = cls.from_config(target, label=label)
            return design if memory_map is None else cls.coerce(
                design, memory_map=memory_map, label=label)
        if isinstance(target, str):
            return cls.coerce(SoCConfig.from_name(target),
                              memory_map=memory_map, label=label or target)
        raise TypeError(
            "analysis target must be a Design, SoC, Netlist, SoCConfig or "
            f"preset name, got {type(target).__name__}")

    def with_label(self, label: str) -> "Design":
        """The same design (netlist, signature) under another label."""
        design = self._rewrap(self._memory_map, label)
        design._signature = self._signature
        return design

    def _rewrap(self, memory_map: Optional[MemoryMap],
                label: str) -> "Design":
        return Design(self._netlist, config=self._config,
                      memory_map=memory_map,
                      debug_interface=self._debug_interface,
                      scan=self._scan, label=label)

    # ------------------------------------------------------------------ #
    # read-only views
    # ------------------------------------------------------------------ #
    @property
    def netlist(self) -> Netlist:
        return self._netlist

    @property
    def config(self) -> Optional[SoCConfig]:
        return self._config

    @property
    def memory_map(self) -> Optional[MemoryMap]:
        return self._memory_map

    @property
    def debug_interface(self):
        return self._debug_interface

    @property
    def scan(self):
        return self._scan

    @property
    def label(self) -> str:
        return self._label or self._netlist.name

    @property
    def name(self) -> str:
        return self._netlist.name

    @property
    def rebuild_spec(self) -> Optional[SoCConfig]:
        """The config a worker process can regenerate this design from."""
        return self._config

    @property
    def signature(self) -> str:
        """Stable content signature: netlist structure + memory map."""
        if self._signature is None:
            hasher = hashlib.sha256()
            hasher.update(netlist_signature(self._netlist).encode())
            hasher.update(b"\x00")
            hasher.update(memory_map_key(self._memory_map).encode())
            self._signature = hasher.hexdigest()
        return self._signature

    @property
    def compiled(self):
        """The design netlist's shared compiled execution IR.

        Compiled at most once per netlist signature (globally cached), so
        handing the same design — or structurally identical rebuilds of it —
        to many sessions, simulators or ATPG engines never re-levelizes the
        circuit.
        """
        from repro.netlist.compiled import get_compiled

        return get_compiled(self._netlist)

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        stats = self._netlist.stats()
        if self._scan is not None:
            stats["scan_cells"] = self._scan.total_cells
            stats["scan_chains"] = len(self._scan.chains)
        return stats

    def __repr__(self) -> str:
        return (f"Design({self.label!r}, netlist={self._netlist.name!r}, "
                f"signature={self.signature[:12]}...)")
