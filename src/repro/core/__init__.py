"""On-line functionally untestable fault identification (the paper's contribution).

The flow mirrors §3 of the paper:

1. :mod:`repro.core.scan_analysis` — prune the scan-chain faults found by
   tracing every chain (§3.1);
2. :mod:`repro.core.debug_control` — tie the debug control inputs to their
   mission constants (§3.2.1);
3. :mod:`repro.core.debug_observe` — float the debug-only observation buses
   (§3.2.2);
4. :mod:`repro.core.memory_analysis` — freeze the address bits the mission
   memory map can never toggle (§3.3);
5. :mod:`repro.core.results` — the Table-I style report the fixed
   six-step flow (:func:`repro.pipeline.run_flow`) assembles from the
   above.

Sources 2–4 each supply only a manipulation: the shared step
:func:`repro.core.classification.classify_manipulated` clones the core,
applies it, runs the structural engine and subtracts the baseline.
"""

from repro.core.classification import (FaultUniverse, ManipulationResult,
                                       build_fault_universe,
                                       classify_manipulated)
from repro.core.debug_control import (DebugControlResult,
                                      identify_debug_control_untestable)
from repro.core.debug_observe import (DebugObserveResult,
                                      identify_debug_observe_untestable)
from repro.core.memory_analysis import (MemoryMapResult,
                                        identify_memory_map_untestable)
from repro.core.report import render_source_details, render_summary_table
from repro.core.results import (FlowConfig, OnlineUntestableReport,
                                SourceSummary)
from repro.core.scan_analysis import (ScanAnalysisResult,
                                      identify_scan_untestable)

__all__ = [
    "DebugControlResult",
    "DebugObserveResult",
    "FaultUniverse",
    "FlowConfig",
    "ManipulationResult",
    "MemoryMapResult",
    "OnlineUntestableReport",
    "ScanAnalysisResult",
    "SourceSummary",
    "build_fault_universe",
    "classify_manipulated",
    "identify_debug_control_untestable",
    "identify_debug_observe_untestable",
    "identify_memory_map_untestable",
    "identify_scan_untestable",
    "render_source_details",
    "render_summary_table",
]
