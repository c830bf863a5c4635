"""The two fault models: site enumeration, injection, detection, collapse.

The paper's methodology is defined over fault *classes*, not over stuck-at
faults specifically — the identification flow, the simulators and the ATPG
engine only need a handful of per-model answers:

* which faults live at a pin/port *site* (site enumeration);
* how a fault perturbs the machine (an :class:`InjectionSpec`: the value
  forced at the site in the capture frame, and — for two-pattern models —
  the value the site must hold in the preceding frame);
* when a tied constant makes a fault unexcitable (detection semantics
  under circuit manipulation);
* which structural equivalences collapse the fault universe;
* how a fault is written and parsed (``"u1/A s-a-0"``, ``"u1/A str"``).

:class:`FaultModel` packages those answers; :data:`STUCK_AT` is the
refactored single stuck-at default and :data:`TRANSITION` adds
launch-on-capture transition-delay faults (slow-to-rise / slow-to-fall).
The execution layer (:mod:`repro.simulation`), PODEM, the tie analysis and
the collapse rules all dispatch through the model, so the kernels never
name a model.

:data:`FAULT_MODELS` is the fixed name -> model table of the two;
configuration surfaces (the ``fault_model`` knob of
:class:`repro.api.RunOptions` and the CLI flag, grid axis and spec key
derived from it) name models by their key there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.faults.fault import (SA0, SA1, StuckAtFault, site_instance_name,
                                site_is_port, site_pin_name)
from repro.netlist.module import Netlist

#: Transition-fault polarities (classic launch-on-capture abbreviations).
SLOW_TO_RISE = "str"
SLOW_TO_FALL = "stf"


@dataclass(frozen=True, order=True)
class TransitionFault:
    """A transition-delay fault at a pin or port site.

    ``polarity`` is ``"str"`` (slow-to-rise: the 0→1 transition arrives
    late) or ``"stf"`` (slow-to-fall).  Under the launch-on-capture
    approximation the site behaves, in the capture frame, as if stuck at
    the value it failed to leave — exposed as :attr:`value` so the
    injection kernels treat both models uniformly.
    """

    site: str
    polarity: str

    def __post_init__(self) -> None:
        if self.polarity not in (SLOW_TO_RISE, SLOW_TO_FALL):
            raise ValueError(
                f"transition polarity must be {SLOW_TO_RISE!r} "
                f"(slow-to-rise) or {SLOW_TO_FALL!r} (slow-to-fall), "
                f"got {self.polarity!r}")

    @property
    def value(self) -> int:
        """The late value: what the site still shows in the capture frame."""
        return 0 if self.polarity == SLOW_TO_RISE else 1

    @property
    def is_port_fault(self) -> bool:
        return site_is_port(self.site)

    @property
    def instance_name(self) -> Optional[str]:
        return site_instance_name(self.site)

    @property
    def pin_name(self) -> Optional[str]:
        return site_pin_name(self.site)

    def __str__(self) -> str:
        return f"{self.site} {self.polarity}"

    @classmethod
    def parse(cls, text: str) -> "TransitionFault":
        """Parse the ``"site str"`` / ``"site stf"`` form of :meth:`__str__`."""
        site, _, tail = text.strip().rpartition(" ")
        if not site or tail not in (SLOW_TO_RISE, SLOW_TO_FALL):
            raise ValueError(
                f"cannot parse transition fault from {text!r}: expected "
                f"'<site> str' (slow-to-rise) or '<site> stf' "
                f"(slow-to-fall), where <site> is '<instance>/<PIN>' or "
                f"'<port>' — e.g. 'u_alu_add_7/A str'")
        return cls(site=site, polarity=tail)


#: Any fault object of either model.
Fault = Union[StuckAtFault, TransitionFault]


@dataclass(frozen=True)
class InjectionSpec:
    """How a fault perturbs (and is detected on) the compiled machine.

    ``stuck_value`` is the value forced at the site in the capture frame —
    the only frame the combinational kernels simulate.  ``frames`` is 1 for
    single-pattern models and 2 for launch-on-capture models, whose
    detection additionally requires the site's *good* value in the
    preceding pattern to equal ``init_value`` (the initialization
    condition); the kernels express that as a pattern-pair mask.
    """

    stuck_value: int
    frames: int = 1
    init_value: Optional[int] = None


class FaultModel:
    """One fault model: enumeration, algebra, semantics, serialization."""

    #: Table key (``"stuck_at"`` or ``"transition"``).
    name: str = ""
    #: Human wording used by the Table-I title ("stuck-at faults").
    label: str = ""
    #: The fault dataclass this model owns.
    fault_type: type = object
    #: Time frames one detection needs (1 = single pattern, 2 = pair).
    frames: int = 1

    # -- site enumeration ---------------------------------------------- #
    def site_faults(self, site: str) -> Tuple[Fault, ...]:
        """Every fault of this model living at one pin/port site."""
        raise NotImplementedError

    def constant_site_faults(self, site: str, value: int) -> Tuple[Fault, ...]:
        """The faults rendered on-line untestable when ``site`` is held at
        ``value`` for the whole mission (e.g. a scan enable parked at its
        functional level)."""
        raise NotImplementedError

    def generate(self, netlist: Netlist, include_ports: bool = True,
                 include_unconnected: bool = False) -> List[Fault]:
        """The uncollapsed pin-fault universe of a netlist for this model."""
        faults: List[Fault] = []
        for inst in netlist.instances.values():
            for pin in inst.pins.values():
                if pin.net is None and not include_unconnected:
                    continue
                faults.extend(self.site_faults(pin.name))
        if include_ports:
            for port in netlist.ports:
                faults.extend(self.site_faults(port))
        return faults

    # -- semantics ------------------------------------------------------ #
    def injection(self, fault: Fault) -> InjectionSpec:
        """The injection/detection spec the simulation kernels consume."""
        raise NotImplementedError

    def excitation_blocked(self, fault: Fault, constant: int) -> bool:
        """Is the fault unexcitable when its site is held at ``constant``?"""
        raise NotImplementedError

    # -- collapsing ----------------------------------------------------- #
    def equivalence_pairs(self, netlist: Netlist
                          ) -> Iterator[Tuple[Fault, Fault]]:
        """Structurally equivalent fault pairs (drives the union-find in
        :func:`repro.faults.collapse.equivalence_classes`)."""
        raise NotImplementedError

    # -- serialization -------------------------------------------------- #
    def format(self, fault: Fault) -> str:
        return str(fault)

    def parse(self, text: str) -> Fault:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<FaultModel {self.name}>"


def _simple_gates(netlist: Netlist):
    """Gates with derived control facts (:attr:`Cell.control`): BUF/INV and
    the AND/NAND/OR/NOR families, as (instance, facts, output pin)."""
    for inst in netlist.instances.values():
        control = inst.cell.control
        if control is not None:
            yield inst, control, inst.output_pins()[0]


def _fanout_free_nets(netlist: Netlist):
    """Nets with a driver and exactly one load (stem ≡ branch)."""
    for net in netlist.nets.values():
        if len(net.loads) == 1 and net.driver is not None:
            yield net.driver, net.loads[0]


class StuckAtModel(FaultModel):
    """The classic single stuck-at model (the paper's fault universe)."""

    name = "stuck_at"
    label = "stuck-at"
    fault_type = StuckAtFault
    frames = 1

    def site_faults(self, site: str) -> Tuple[StuckAtFault, ...]:
        return (StuckAtFault(site, SA0), StuckAtFault(site, SA1))

    def constant_site_faults(self, site: str,
                             value: int) -> Tuple[StuckAtFault, ...]:
        # Only the stuck-at matching the held value is hidden; the opposite
        # fault corrupts mission behaviour and stays very much testable.
        return (StuckAtFault(site, value),)

    _SPECS = (InjectionSpec(stuck_value=0, frames=1),
              InjectionSpec(stuck_value=1, frames=1))

    def injection(self, fault: StuckAtFault) -> InjectionSpec:
        # Site-independent, so the two possible specs are shared.
        return self._SPECS[fault.value]

    def excitation_blocked(self, fault: StuckAtFault, constant: int) -> bool:
        return constant == fault.value

    def equivalence_pairs(self, netlist: Netlist):
        for inst, (controlling, inversion), out in _simple_gates(netlist):
            if controlling is None:
                source = inst.input_pins()[0].name
                for value in (SA0, SA1):
                    yield (StuckAtFault(out.name, value),
                           StuckAtFault(source, value ^ inversion))
                continue
            for pin in inst.input_pins():
                yield (StuckAtFault(out.name, controlling ^ inversion),
                       StuckAtFault(pin.name, controlling))
        for driver, load in _fanout_free_nets(netlist):
            for value in (SA0, SA1):
                yield (StuckAtFault(driver.name, value),
                       StuckAtFault(load.name, value))

    def parse(self, text: str) -> StuckAtFault:
        return StuckAtFault.parse(text)


class TransitionDelayModel(FaultModel):
    """Launch-on-capture transition-delay faults (slow-to-rise/fall).

    Detection of ``site str`` by the consecutive pattern pair ``(v1, v2)``
    requires ``v1`` to set the site to 0 (initialization) and ``v2`` to
    detect the site stuck-at-0 (launch + propagate) — the standard
    two-pattern approximation, which is what lets every single-pattern
    kernel be reused with one extra pair mask.

    Collapsing is deliberately more conservative than stuck-at: the
    controlling-value gate rules do not carry over (a slow input transition
    is not equivalent to a slow output transition once the initialization
    condition is accounted for), so only buffer/inverter chains (the
    inverter swaps polarity) and fanout-free stem/branch pairs collapse.
    """

    name = "transition"
    label = "transition-delay"
    fault_type = TransitionFault
    frames = 2

    def site_faults(self, site: str) -> Tuple[TransitionFault, ...]:
        return (TransitionFault(site, SLOW_TO_RISE),
                TransitionFault(site, SLOW_TO_FALL))

    def constant_site_faults(self, site: str,
                             value: int) -> Tuple[TransitionFault, ...]:
        # A site held constant never transitions at all, so *both*
        # polarities are hidden from the mission.
        return self.site_faults(site)

    _SPECS = (InjectionSpec(stuck_value=0, frames=2, init_value=0),
              InjectionSpec(stuck_value=1, frames=2, init_value=1))

    def injection(self, fault: TransitionFault) -> InjectionSpec:
        # The late value doubles as the initialization value: slow-to-rise
        # needs a 0 in the launch frame and shows a 0 in the capture frame
        # — site-independent, so the two possible specs are shared.
        return self._SPECS[fault.value]

    def excitation_blocked(self, fault: TransitionFault,
                           constant: int) -> bool:
        # Any constant kills both transitions: a held net never toggles.
        return True

    def equivalence_pairs(self, netlist: Netlist):
        flipped = {SLOW_TO_RISE: SLOW_TO_FALL, SLOW_TO_FALL: SLOW_TO_RISE}
        for inst, (controlling, inversion), out in _simple_gates(netlist):
            if controlling is None:
                source = inst.input_pins()[0].name
                for polarity in (SLOW_TO_RISE, SLOW_TO_FALL):
                    yield (TransitionFault(out.name, polarity),
                           TransitionFault(source, flipped[polarity]
                                           if inversion else polarity))
        for driver, load in _fanout_free_nets(netlist):
            for polarity in (SLOW_TO_RISE, SLOW_TO_FALL):
                yield (TransitionFault(driver.name, polarity),
                       TransitionFault(load.name, polarity))

    def parse(self, text: str) -> TransitionFault:
        return TransitionFault.parse(text)


# --------------------------------------------------------------------- #
# the two built-in models
# --------------------------------------------------------------------- #
STUCK_AT = StuckAtModel()
TRANSITION = TransitionDelayModel()

#: Model name -> model, in listing order.
FAULT_MODELS: Dict[str, FaultModel] = {STUCK_AT.name: STUCK_AT,
                                       TRANSITION.name: TRANSITION}
#: Fault type -> owning model, the :func:`model_of` dispatch table.
_MODELS_BY_TYPE: Dict[type, FaultModel] = {
    model.fault_type: model for model in FAULT_MODELS.values()}

#: Name of the default model (the paper's universe).
DEFAULT_FAULT_MODEL = STUCK_AT.name


def fault_model_names() -> Tuple[str, ...]:
    """The model names, listing order."""
    return tuple(FAULT_MODELS)


def resolve_fault_model(spec: Union[str, FaultModel, None]) -> FaultModel:
    """Coerce a model spec (instance, name or None) to a model.

    The single parser behind the ``fault_model`` knob of
    :class:`repro.api.RunOptions` (and so every surface derived from it)
    and the fault-list builders.  ``None`` resolves to the stuck-at model;
    an unknown name raises a :class:`ValueError` listing the model names.
    """
    if spec is None:
        return STUCK_AT
    if isinstance(spec, FaultModel):
        return spec
    name = str(spec).strip().lower()
    try:
        return FAULT_MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault model {name!r}; expected one of: "
            f"{', '.join(FAULT_MODELS)}") from None


def model_of(fault: object) -> FaultModel:
    """The model owning a fault object, by its exact type."""
    try:
        return _MODELS_BY_TYPE[type(fault)]
    except KeyError:
        raise TypeError(
            f"no fault model owns {type(fault).__name__} objects") from None


def resolve_injection(fault: Fault) -> InjectionSpec:
    """Shorthand: the injection spec of a fault under its owning model."""
    return model_of(fault).injection(fault)


def parse_fault(text: str) -> Fault:
    """Parse a serialized fault of either model.

    The models are tried in listing order; the combined error lists every
    grammar so a typo in a persisted fault list is actionable.
    """
    errors: List[str] = []
    for model in FAULT_MODELS.values():
        try:
            return model.parse(text)
        except ValueError as exc:
            errors.append(str(exc))
    raise ValueError(
        f"cannot parse fault from {text!r} under any fault model "
        f"({', '.join(FAULT_MODELS)}):\n  - " + "\n  - ".join(errors))
