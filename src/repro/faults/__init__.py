"""Fault models, fault lists, classification taxonomy and collapsing."""

from repro.faults.fault import SA0, SA1, StuckAtFault, fault_site_net, fault_site_pin
from repro.faults.categories import FaultClass, OnlineUntestableSource
from repro.faults.models import (
    DEFAULT_FAULT_MODEL,
    SLOW_TO_FALL,
    SLOW_TO_RISE,
    STUCK_AT,
    TRANSITION,
    FaultModel,
    InjectionSpec,
    StuckAtModel,
    TransitionDelayModel,
    TransitionFault,
    FAULT_MODELS,
    fault_model_names,
    model_of,
    parse_fault,
    resolve_fault_model,
    resolve_injection,
)
from repro.faults.faultlist import FaultList, generate_fault_list
from repro.faults.collapse import collapse_fault_list, equivalence_classes

__all__ = [
    "SA0",
    "SA1",
    "SLOW_TO_RISE",
    "SLOW_TO_FALL",
    "StuckAtFault",
    "TransitionFault",
    "fault_site_net",
    "fault_site_pin",
    "FaultClass",
    "OnlineUntestableSource",
    "FaultModel",
    "InjectionSpec",
    "StuckAtModel",
    "TransitionDelayModel",
    "STUCK_AT",
    "TRANSITION",
    "DEFAULT_FAULT_MODEL",
    "FAULT_MODELS",
    "fault_model_names",
    "resolve_fault_model",
    "model_of",
    "resolve_injection",
    "parse_fault",
    "FaultList",
    "generate_fault_list",
    "collapse_fault_list",
    "equivalence_classes",
]
