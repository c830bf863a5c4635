"""The paper's §4 flow and the cache its steps run through.

The flow is six fixed steps in paper order — ``fault_list``,
``baseline``, ``scan_analysis``, ``debug_control``, ``debug_observe``,
``memory_analysis`` — listed once in :data:`STEPS` and run straight
through by :func:`run_flow`, which :meth:`repro.api.Session.analyze`
calls.  :class:`~repro.core.results.FlowConfig` is the one way to select
sources.  Each step result is memoised in an :class:`ArtifactCache` (with
an optional durable store below it) under the key :func:`step_keys`
builds: the netlist signature, the configuration facets the step reads,
and the step name.

Quickstart::

    import repro
    report = repro.Session().analyze("tiny")
"""

from repro.netlist.compiled import netlist_signature
from repro.pipeline.base import PassResult
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.flow import CONFIG_FACETS, STEPS, run_flow, step_keys

__all__ = [
    "ArtifactCache",
    "CONFIG_FACETS",
    "PassResult",
    "STEPS",
    "netlist_signature",
    "run_flow",
    "step_keys",
]
