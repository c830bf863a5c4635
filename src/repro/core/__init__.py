"""On-line functionally untestable fault identification (the paper's contribution).

The flow mirrors §3 of the paper:

1. :mod:`repro.core.scan_analysis` — prune the scan-chain faults found by
   tracing every chain (§3.1);
2. :mod:`repro.core.debug_control` — tie the debug control inputs to their
   mission constants and let the structural engine classify the faults that
   become untestable (§3.2.1);
3. :mod:`repro.core.debug_observe` — float the debug-only observation buses
   and collect the faults that lose their last observation point (§3.2.2);
4. :mod:`repro.core.memory_analysis` — freeze the address bits the mission
   memory map can never toggle and collect the resulting untestable faults
   (§3.3);
5. :mod:`repro.core.results` — the Table-I style report the pass
   pipeline (:mod:`repro.pipeline`) assembles from the above.

Exports are resolved lazily (PEP 562): :mod:`repro.core.registry` is the
dependency-free substrate every pluggable layer (fault models, store
backends, ATPG backends) imports at definition time, so this
package must be importable without dragging in the flow modules — which
themselves import those layers.
"""

import importlib

#: Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "FaultUniverse": "repro.core.classification",
    "build_fault_universe": "repro.core.classification",
    "ScanAnalysisResult": "repro.core.scan_analysis",
    "identify_scan_untestable": "repro.core.scan_analysis",
    "DebugControlResult": "repro.core.debug_control",
    "identify_debug_control_untestable": "repro.core.debug_control",
    "DebugObserveResult": "repro.core.debug_observe",
    "identify_debug_observe_untestable": "repro.core.debug_observe",
    "MemoryMapResult": "repro.core.memory_analysis",
    "identify_memory_map_untestable": "repro.core.memory_analysis",
    "FlowConfig": "repro.core.results",
    "OnlineUntestableReport": "repro.core.results",
    "SourceSummary": "repro.core.results",
    "render_summary_table": "repro.core.report",
    "render_source_details": "repro.core.report",
    "Registry": "repro.core.registry",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
