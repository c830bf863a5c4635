"""Debug infrastructure: interface specification and quiescent-signal
discovery.  The SoC's debug logic itself is generated by
:mod:`repro.soc.debug_logic`."""

from repro.debug.interface import (
    DebugInterface,
    discover_debug_interface,
    find_quiescent_inputs,
)

__all__ = [
    "DebugInterface",
    "discover_debug_interface",
    "find_quiescent_inputs",
]
