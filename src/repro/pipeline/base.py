"""The value one flow step hands back (and the durable store pickles).

:class:`PassResult` stays at this import path: stored artifacts refer to
it by module and name, so moving it would turn every stored entry into a
corruption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from repro.faults.models import Fault


@dataclass
class PassResult:
    """What a step of :mod:`repro.pipeline.flow` produces.

    ``artifacts`` are what later steps read (the fault universe, the
    baseline-untestable set, ...).  ``identified`` is the set of faults a
    source step claims as on-line functionally untestable; the flow
    credits each to its first claiming source in the paper's order.
    ``details`` is the source analysis' own result object.
    """

    artifacts: Dict[str, Any] = field(default_factory=dict)
    identified: Optional[Set[Fault]] = None
    details: Any = None

    def __post_init__(self) -> None:
        if self.identified is not None:
            self.identified = set(self.identified)
