"""Combinational ATPG and structural-untestability analysis.

This package plays the role of the commercial ATPG tool (Synopsys TetraMax)
in the paper's flow: it classifies stuck-at faults of the combinational view
of a netlist into detected / untestable-due-to-tied-value / redundant /
abandoned classes.  The on-line untestability identification in
:mod:`repro.core` manipulates the circuit (ties, floating outputs) and then
calls this engine, exactly as the paper does with TetraMax.
"""

from repro.atpg.podem import Podem, PodemResult, PodemStatus
from repro.atpg.dalg import DAlg
from repro.atpg.tie_analysis import TieAnalysis, TieAnalysisResult
from repro.atpg.random_patterns import random_pattern_detection
from repro.atpg.engine import AtpgEffort, StructuralUntestabilityEngine, UntestabilityReport
from repro.atpg.portfolio import (
    ATPG_BACKENDS,
    AtpgBackend,
    DEFAULT_ATPG_BACKEND,
    atpg_backend_names,
    compact_patterns,
    register_atpg_backend,
    resolve_atpg_backend,
)

__all__ = [
    "Podem",
    "PodemResult",
    "PodemStatus",
    "DAlg",
    "TieAnalysis",
    "TieAnalysisResult",
    "random_pattern_detection",
    "AtpgEffort",
    "StructuralUntestabilityEngine",
    "UntestabilityReport",
    "ATPG_BACKENDS",
    "AtpgBackend",
    "DEFAULT_ATPG_BACKEND",
    "atpg_backend_names",
    "compact_patterns",
    "register_atpg_backend",
    "resolve_atpg_backend",
]
