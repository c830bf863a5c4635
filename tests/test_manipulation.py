"""Unit tests for circuit manipulation: ties and floats."""

import pytest

from repro.manipulation.disconnect import disconnect_output_port
from repro.manipulation.tie import TieRecord, tie_net, tie_port, tied_nets
from repro.netlist.cells import LOGIC_0, LOGIC_1


class TestTie:
    def test_tie_net_sets_value_and_records(self, and_or_circuit):
        record = tie_net(and_or_circuit, "c", LOGIC_1, reason="debug input")
        assert isinstance(record, TieRecord)
        assert and_or_circuit.net("c").tied == LOGIC_1
        assert tied_nets(and_or_circuit) == {"c": LOGIC_1}
        assert and_or_circuit.annotations["tie_records"][0].reason == "debug input"

    def test_tie_invalid_value_rejected(self, and_or_circuit):
        with pytest.raises(ValueError):
            tie_net(and_or_circuit, "c", 5)

    def test_tie_unknown_net_rejected(self, and_or_circuit):
        with pytest.raises(KeyError):
            tie_net(and_or_circuit, "nope", LOGIC_0)

    def test_tie_port_checks_existence(self, and_or_circuit):
        tie_port(and_or_circuit, "a", LOGIC_0)
        with pytest.raises(KeyError):
            tie_port(and_or_circuit, "not_a_port", LOGIC_0)


class TestDisconnect:
    def test_disconnect_marks_unobservable(self, and_or_circuit):
        disconnect_output_port(and_or_circuit, "z", reason="debug bus")
        assert "z" in and_or_circuit.unobservable_ports
        assert and_or_circuit.observable_output_ports() == ["y"]

    def test_disconnect_requires_output_port(self, and_or_circuit):
        with pytest.raises(ValueError):
            disconnect_output_port(and_or_circuit, "a")
        with pytest.raises(KeyError):
            disconnect_output_port(and_or_circuit, "nope")
