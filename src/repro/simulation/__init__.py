"""Logic simulation: sequential capture and fault simulation.

Two engines carry the flow: the two-valued word kernel
(:class:`ParallelPatternSimulator`, pooled by
:func:`sharded_mission_grade`) grades faults, and the event-driven
:class:`SequentialSimulator` captures SBST patterns.  The three-valued
:class:`FaultSimulator` is the X-capable reference.
"""

from repro.simulation.sequential import SequentialSimulator
from repro.simulation.fault_sim import FaultSimulator, FaultSimResult
from repro.simulation.kernels import kernel_info
from repro.simulation.parallel import ParallelPatternSimulator
from repro.simulation.sharded import sharded_mission_grade

__all__ = [
    "SequentialSimulator",
    "FaultSimulator",
    "FaultSimResult",
    "ParallelPatternSimulator",
    "sharded_mission_grade",
    "kernel_info",
]
