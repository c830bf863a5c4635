"""Logic simulation: combinational, sequential and fault simulation."""

from repro.simulation.simulator import CombinationalSimulator
from repro.simulation.sequential import SequentialSimulator
from repro.simulation.fault_sim import FaultSimulator, FaultSimResult
from repro.simulation.kernels import kernel_info
from repro.simulation.parallel import ParallelPatternSimulator
from repro.simulation.sharded import sharded_mission_grade

__all__ = [
    "CombinationalSimulator",
    "SequentialSimulator",
    "FaultSimulator",
    "FaultSimResult",
    "ParallelPatternSimulator",
    "sharded_mission_grade",
    "kernel_info",
]
