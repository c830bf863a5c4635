"""Fault-list generation: the ordered, de-duplicated fault universe.

:func:`generate_fault_list` enumerates a netlist's pin-fault universe
under the selected :class:`~repro.faults.models.FaultModel` (stuck-at by
default) into a :class:`FaultList`.  The list holds faults only:
verdicts live in the engine's
:class:`~repro.atpg.engine.UntestabilityReport` and the flow's
:class:`~repro.core.results.OnlineUntestableReport`, and a fault's text
round-trips through :func:`~repro.faults.models.parse_fault`.
:func:`resolve_faults` is the one owner of the "no faults given means the
whole universe" default.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Union

from repro.faults.models import Fault, FaultModel, resolve_fault_model
from repro.netlist.module import Netlist


def generate_fault_list(netlist: Netlist,
                        include_ports: bool = True,
                        include_unconnected: bool = False,
                        model: Union[str, FaultModel, None] = None
                        ) -> "FaultList":
    """Create the uncollapsed pin-fault universe of a netlist.

    Site enumeration is delegated to the fault model (default: single
    stuck-at — two faults per instance pin and, when ``include_ports`` is
    set, per module port).  Pins left unconnected are skipped unless
    ``include_unconnected`` is set (an unconnected pin has no observable
    behaviour at all).
    """
    resolved = resolve_fault_model(model)
    faults = resolved.generate(netlist, include_ports=include_ports,
                               include_unconnected=include_unconnected)
    return FaultList(faults, netlist_name=netlist.name)


def resolve_faults(netlist: Netlist, faults: Optional[Iterable[Fault]] = None,
                   model: Union[str, FaultModel, None] = None) -> List[Fault]:
    """``faults`` as a list, or, when it is None, the netlist's whole fault
    universe under ``model``: the default every analysis and grader uses."""
    if faults is not None:
        return list(faults)
    return generate_fault_list(netlist, model=model).faults()


class FaultList:
    """An ordered collection of distinct faults (either model)."""

    def __init__(self, faults: Iterable[Fault] = (),
                 netlist_name: str = "") -> None:
        self.netlist_name = netlist_name
        self._faults = dict.fromkeys(faults)

    def __len__(self) -> int:
        return len(self._faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self._faults)

    def __contains__(self, fault: Fault) -> bool:
        return fault in self._faults

    def faults(self) -> List[Fault]:
        return list(self._faults)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"FaultList({self.netlist_name}, total={len(self)})"
