"""Static netlist analysis: testability measures, learned implications,
dominators and untestability proofs.

Everything here is computed once per compiled netlist (cached through
:meth:`repro.netlist.compiled.CompiledNetlist.extension`, which is itself
keyed on the netlist signature) and is purely *structural*: no fault is ever
simulated.  The :class:`~repro.analysis.prover.StaticAnalysis` handle bundles

* SCOAP-style controllability/observability arrays (:mod:`.scoap`);
* Schulz-style learned global implications (:mod:`.implications`);
* structural post-dominators of every net (:mod:`.dominators`);
* a static untestability prover (:mod:`.prover`) combining the three.

Proofs are sound with respect to the PODEM search in
:mod:`repro.atpg.podem`: a :class:`~repro.analysis.prover.StaticProof` for a
fault guarantees the exhaustive search would return UNTESTABLE, so at FULL
effort the classifier skips the search for every proven fault.  Some of
these faults would exhaust PODEM's backtrack limit, so the prover settles
verdicts the bounded search cannot.
"""

from repro.analysis.dominators import DominatorAnalysis
from repro.analysis.implications import (ImplicationTable, learn_implications,
                                         necessary_assignments)
from repro.analysis.prover import (StaticAnalysis, StaticProof,
                                   get_static_analysis)
from repro.analysis.scoap import INF, ScoapTables, compute_scoap

__all__ = [
    "INF",
    "DominatorAnalysis",
    "ImplicationTable",
    "ScoapTables",
    "StaticAnalysis",
    "StaticProof",
    "compute_scoap",
    "get_static_analysis",
    "learn_implications",
    "necessary_assignments",
]
