"""Software-based self-test (SBST) substrate.

The paper's context is a mature SBST suite for an automotive processor: the
functional programs are what exercises the core in the field, the toggle
activity they produce is what shortlists the quiescent debug inputs (§4),
and the fault coverage they achieve is the figure that improves by ~13.8 %
once the on-line functionally untestable faults are pruned from the
denominator.

This package provides the equivalent machinery for the synthetic core: an
assembler for the miniature ISA, an SBST program generator, a toggle-activity monitor over the gate-level
netlist, and a bus-observation fault-grading flow.
"""

from repro.sbst.assembler import AssemblerError, assemble, disassemble
from repro.sbst.program_gen import SbstProgram, generate_sbst_suite
from repro.sbst.monitor import CapturedPatterns, ToggleMonitor
from repro.sbst.grading import CoverageComparison, FaultGrader

__all__ = [
    "AssemblerError",
    "assemble",
    "disassemble",
    "SbstProgram",
    "generate_sbst_suite",
    "CapturedPatterns",
    "ToggleMonitor",
    "CoverageComparison",
    "FaultGrader",
]
