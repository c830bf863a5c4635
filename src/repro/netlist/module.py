"""The netlist graph: pins, nets, instances and the :class:`Netlist` container.

The model deliberately mirrors the flat gate-level view an ATPG tool sees:

* a *net* has exactly one driver (an instance output pin or a module input
  port) and any number of loads (instance input pins and module output
  ports);
* a *pin* belongs to an instance and connects to exactly one net;
* module ports are named entries in :attr:`Netlist.ports`; by convention the
  net carrying a port has the same name as the port.

Two pieces of mutable analysis state live directly on the graph because the
paper's methodology is defined in terms of them:

* :attr:`Net.tied` — the net has been connected to ground/Vdd ("tied'0 /
  tied'1") by the circuit-manipulation step (§3.2.1 / §3.3);
* :attr:`Netlist.unobservable_ports` — output ports left floating because the
  external debugger is disconnected (§3.2.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.netlist.cells import Cell, Library, standard_library

INPUT = "input"
OUTPUT = "output"


class Pin:
    """A connection point of an :class:`Instance`."""

    __slots__ = ("instance", "port", "direction", "net")

    def __init__(self, instance: "Instance", port: str, direction: str) -> None:
        self.instance = instance
        self.port = port
        self.direction = direction
        self.net: Optional[Net] = None

    @property
    def name(self) -> str:
        """Hierarchical pin name ``instance/port`` — the fault-site identifier."""
        return f"{self.instance.name}/{self.port}"

    @property
    def is_input(self) -> bool:
        return self.direction == INPUT

    @property
    def is_output(self) -> bool:
        return self.direction == OUTPUT

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        net = self.net.name if self.net is not None else "<unconnected>"
        return f"Pin({self.name}, {self.direction}, net={net})"


class Net:
    """A wire connecting one driver to zero or more loads."""

    __slots__ = ("name", "driver", "loads", "is_input_port", "is_output_port",
                 "tied")

    def __init__(self, name: str) -> None:
        self.name = name
        self.driver: Optional[Pin] = None
        self.loads: List[Pin] = []
        self.is_input_port = False
        self.is_output_port = False
        # None: not tied; LOGIC_0 / LOGIC_1: forced to a constant by the
        # circuit-manipulation step.
        self.tied: Optional[int] = None

    @property
    def has_driver(self) -> bool:
        return self.driver is not None or self.is_input_port or self.tied is not None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        driver = (self.driver.name if self.driver
                  else ("PI" if self.is_input_port else "-"))
        return (f"Net({self.name}, driver={driver}, "
                f"loads={len(self.loads)}, tied={self.tied})")


class Instance:
    """An instantiated library cell."""

    __slots__ = ("name", "cell", "pins")

    def __init__(self, name: str, cell: Cell) -> None:
        self.name = name
        self.cell = cell
        self.pins: Dict[str, Pin] = {}
        for port in cell.inputs:
            self.pins[port] = Pin(self, port, INPUT)
        for port in cell.outputs:
            self.pins[port] = Pin(self, port, OUTPUT)

    @property
    def is_sequential(self) -> bool:
        return self.cell.sequential

    def pin(self, port: str) -> Pin:
        try:
            return self.pins[port]
        except KeyError:
            raise KeyError(
                f"cell {self.cell.name!r} has no pin {port!r} "
                f"(instance {self.name!r})"
            ) from None

    def input_pins(self) -> List[Pin]:
        return [self.pins[p] for p in self.cell.inputs]

    def output_pins(self) -> List[Pin]:
        return [self.pins[p] for p in self.cell.outputs]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Instance({self.name}, {self.cell.name})"


class Netlist:
    """A flat gate-level module."""

    def __init__(self, name: str, library: Optional[Library] = None) -> None:
        self.name = name
        self.library = library if library is not None else standard_library()
        self.ports: Dict[str, str] = {}
        self.nets: Dict[str, Net] = {}
        self.instances: Dict[str, Instance] = {}
        # Output ports declared unobservable by the debug-observation
        # manipulation (§3.2.2): the logic driving them is left floating.
        self.unobservable_ports: Set[str] = set()
        # Free-form annotations attached by generators and analyses, e.g.
        # the list of debug-related input ports or the scan chain order.
        self.annotations: Dict[str, object] = {}
        # Bumped on every structural mutation; the compiled-netlist cache
        # and the signature memo (:mod:`repro.netlist.compiled`) use it to
        # revalidate cheaply.  Tie values and unobservable ports are
        # mutated directly on the graph, so both fingerprint those
        # separately.
        self._mutations = 0

    # ------------------------------------------------------------------ #
    # construction primitives
    # ------------------------------------------------------------------ #
    def add_port(self, name: str, direction: str) -> Net:
        """Declare a module port and return its net (created if needed)."""
        if direction not in (INPUT, OUTPUT):
            raise ValueError(f"invalid port direction {direction!r}")
        if name in self.ports:
            raise ValueError(f"port {name!r} already declared on module {self.name!r}")
        self.ports[name] = direction
        self._mutations += 1
        net = self.get_or_create_net(name)
        if direction == INPUT:
            net.is_input_port = True
        else:
            net.is_output_port = True
        return net

    def get_or_create_net(self, name: str) -> Net:
        net = self.nets.get(name)
        if net is None:
            net = Net(name)
            self.nets[name] = net
            self._mutations += 1
        return net

    def net(self, name: str) -> Net:
        try:
            return self.nets[name]
        except KeyError:
            raise KeyError(f"net {name!r} not found in module {self.name!r}") from None

    def add_instance(self, name: str, cell_name: str,
                     connections: Dict[str, str]) -> Instance:
        """Instantiate ``cell_name`` as ``name`` connecting pins to net names."""
        if name in self.instances:
            raise ValueError(
                f"instance {name!r} already exists in module {self.name!r}")
        cell = self.library.get(cell_name)
        inst = Instance(name, cell)
        self.instances[name] = inst
        self._mutations += 1
        for port, net_name in connections.items():
            self.connect(inst.pin(port), net_name)
        return inst

    def connect(self, pin: Pin, net_name: str) -> Net:
        """Connect ``pin`` to the net named ``net_name``."""
        net = self.get_or_create_net(net_name)
        if pin.net is not None:
            self.disconnect(pin)
        if pin.is_output:
            if net.driver is not None:
                raise ValueError(
                    f"net {net.name!r} already driven by {net.driver.name}; "
                    f"cannot also connect driver {pin.name}"
                )
            net.driver = pin
        else:
            net.loads.append(pin)
        pin.net = net
        self._mutations += 1
        return net

    def disconnect(self, pin: Pin) -> None:
        """Detach ``pin`` from its net (used by the observation-float step)."""
        net = pin.net
        if net is None:
            return
        if pin.is_output and net.driver is pin:
            net.driver = None
        elif pin in net.loads:
            net.loads.remove(pin)
        pin.net = None
        self._mutations += 1

    def remove_instance(self, name: str) -> None:
        inst = self.instances.pop(name)
        self._mutations += 1
        for pin in inst.pins.values():
            self.disconnect(pin)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def input_ports(self) -> List[str]:
        return [p for p, d in self.ports.items() if d == INPUT]

    def output_ports(self) -> List[str]:
        return [p for p, d in self.ports.items() if d == OUTPUT]

    def observable_output_ports(self) -> List[str]:
        return [p for p in self.output_ports() if p not in self.unobservable_ports]

    def sequential_instances(self) -> List[Instance]:
        return [i for i in self.instances.values() if i.is_sequential]

    def combinational_instances(self) -> List[Instance]:
        return [i for i in self.instances.values() if not i.is_sequential]

    def instance(self, name: str) -> Instance:
        try:
            return self.instances[name]
        except KeyError:
            raise KeyError(
                f"instance {name!r} not found in module {self.name!r}"
            ) from None

    def pin_by_name(self, name: str) -> Pin:
        """Resolve ``"instance/port"`` back to a :class:`Pin`."""
        inst_name, _, port = name.rpartition("/")
        if not inst_name:
            raise ValueError(f"{name!r} is not an instance pin name")
        return self.instance(inst_name).pin(port)

    def stats(self) -> Dict[str, int]:
        """Basic size statistics used in reports."""
        seq = sum(1 for i in self.instances.values() if i.is_sequential)
        pins = sum(len(i.pins) for i in self.instances.values())
        return {
            "instances": len(self.instances),
            "sequential": seq,
            "combinational": len(self.instances) - seq,
            "nets": len(self.nets),
            "ports": len(self.ports),
            "pins": pins,
        }

    def clone(self, name: Optional[str] = None) -> "Netlist":
        """Deep-copy the structural content (used before circuit manipulation)."""
        other = Netlist(name or self.name, self.library)
        for port, direction in self.ports.items():
            other.add_port(port, direction)
        for net_name in self.nets:
            other.get_or_create_net(net_name)
        for inst in self.instances.values():
            connections = {
                port: pin.net.name
                for port, pin in inst.pins.items()
                if pin.net is not None
            }
            other.add_instance(inst.name, inst.cell.name, connections)
        for net_name, net in self.nets.items():
            other.nets[net_name].tied = net.tied
        other.unobservable_ports = set(self.unobservable_ports)
        other.annotations = dict(self.annotations)
        return other

    # ------------------------------------------------------------------ #
    # pickling
    # ------------------------------------------------------------------ #
    def __reduce__(self):
        """Pickle as a flat structural description, rebuilt on load.

        The object graph is deeply cyclic (net → pin → instance → net …),
        so default pickling would recurse past the interpreter limit on
        real-size cores; the flat form also drops the per-object compiled
        cache (which holds a lock).  The rebuild replays the same
        construction path as :meth:`clone`, with the original net creation
        order preserved so compiled net IDs survive the round trip.
        """
        state = {
            "name": self.name,
            "library": self.library,
            "nets": list(self.nets),
            "ports": dict(self.ports),
            "instances": [
                (inst.name, inst.cell.name,
                 {port: pin.net.name for port, pin in inst.pins.items()
                  if pin.net is not None})
                for inst in self.instances.values()
            ],
            "tied": {name: net.tied for name, net in self.nets.items()
                     if net.tied is not None},
            "unobservable_ports": set(self.unobservable_ports),
            "annotations": dict(self.annotations),
        }
        return (_rebuild_netlist, (state,))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        s = self.stats()
        return (f"Netlist({self.name}, instances={s['instances']}, "
                f"nets={s['nets']}, ports={s['ports']})")


def _rebuild_netlist(state: Dict[str, object]) -> "Netlist":
    """Pickle hook: reconstruct a :class:`Netlist` from its flat state."""
    netlist = Netlist(state["name"], state["library"])
    for net_name in state["nets"]:
        netlist.get_or_create_net(net_name)
    for port, direction in state["ports"].items():
        netlist.add_port(port, direction)
    for inst_name, cell_name, connections in state["instances"]:
        netlist.add_instance(inst_name, cell_name, connections)
    for net_name, tied in state["tied"].items():
        netlist.nets[net_name].tied = tied
    netlist.unobservable_ports = set(state["unobservable_ports"])
    netlist.annotations = dict(state["annotations"])
    return netlist
