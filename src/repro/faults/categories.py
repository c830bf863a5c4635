"""Fault classification taxonomy.

:class:`FaultClass` mirrors the classes a commercial ATPG tool (the paper
uses Synopsys TetraMax) assigns during test generation and untestability
analysis; :class:`OnlineUntestableSource` records *why* a fault was declared
on-line functionally untestable — the three sources studied in the paper
(scan, debug, memory map) plus the sub-split of debug into control and
observation used in Table I.
"""

from __future__ import annotations

from enum import Enum


class FaultClass(str, Enum):
    """ATPG-style fault classes."""

    #: Not yet classified.
    NC = "NC"
    #: Detected by a test pattern (fault simulation or ATPG).
    DT = "DT"
    #: Possibly detected (detected only through an X-valued output).
    PT = "PT"
    #: Proven untestable by exhaustive search (redundant logic).
    UU = "UU"
    #: Untestable because of a tied (constant) value — the class the paper's
    #: circuit-manipulation step turns on-line untestable faults into.
    UT = "UT"
    #: Untestable because all propagation paths are blocked by constants.
    UB = "UB"
    #: Untestable because the fault effect cannot reach any observation point
    #: (e.g. the logic only feeds a floating debug output).
    UO = "UO"
    #: ATPG gave up (backtrack limit) — not proven either way.
    AU = "AU"
    #: Not detected by the supplied patterns (fault-simulation only runs).
    ND = "ND"

    @property
    def is_untestable(self) -> bool:
        return self in _UNTESTABLE

    @property
    def is_detected(self) -> bool:
        return self in (FaultClass.DT, FaultClass.PT)


_UNTESTABLE = frozenset(
    {FaultClass.UU, FaultClass.UT, FaultClass.UB, FaultClass.UO}
)


class OnlineUntestableSource(str, Enum):
    """Source of on-line functional untestability (paper §3.1–§3.3)."""

    #: Scan-chain circuitry (SI/SE pins, scan-path buffers) — §3.1.
    SCAN = "scan"
    #: Debug control logic tied to its mission-mode constant — §3.2.1.
    DEBUG_CONTROL = "debug_control"
    #: Debug observation logic left floating — §3.2.2.
    DEBUG_OBSERVE = "debug_observe"
    #: Address bits frozen by the mission memory map — §3.3.
    MEMORY_MAP = "memory_map"
    #: Structurally untestable already in the original circuit (baseline).
    STRUCTURAL = "structural"

    @property
    def table_row(self) -> str:
        """Row label used in the Table-I style summary."""
        if self in (OnlineUntestableSource.DEBUG_CONTROL,
                    OnlineUntestableSource.DEBUG_OBSERVE):
            return "Debug"
        if self is OnlineUntestableSource.SCAN:
            return "Scan"
        if self is OnlineUntestableSource.MEMORY_MAP:
            return "Memory"
        return "Original"


#: First-source attribution order used by Table I: each on-line untestable
#: fault is credited to the first source that identifies it, scanning the
#: sources in this fixed order regardless of how the analyses were scheduled.
PAPER_SOURCE_ORDER = (
    OnlineUntestableSource.SCAN,
    OnlineUntestableSource.DEBUG_CONTROL,
    OnlineUntestableSource.DEBUG_OBSERVE,
    OnlineUntestableSource.MEMORY_MAP,
)


def source_label(source: OnlineUntestableSource) -> str:
    """The serialized label of a source (its enum value)."""
    return source.value
