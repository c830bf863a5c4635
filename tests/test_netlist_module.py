"""Unit tests for the netlist graph (Pin / Net / Instance / Netlist)."""

import pytest

from repro.manipulation import disconnect_output_port, tie_net, tie_port
from repro.netlist.compiled import _structural_digest, netlist_signature
from repro.netlist.module import INPUT, OUTPUT, Netlist, merge_netlists


def make_simple():
    netlist = Netlist("simple")
    netlist.add_port("a", INPUT)
    netlist.add_port("b", INPUT)
    netlist.add_port("y", OUTPUT)
    netlist.add_instance("g1", "AND2", {"A": "a", "B": "b", "Y": "n1"})
    netlist.add_instance("g2", "INV", {"A": "n1", "Y": "y"})
    return netlist


class TestConstruction:
    def test_ports_and_nets_created(self):
        netlist = make_simple()
        assert set(netlist.input_ports()) == {"a", "b"}
        assert netlist.output_ports() == ["y"]
        assert netlist.net("a").is_input_port
        assert netlist.net("y").is_output_port
        assert "n1" in netlist.nets

    def test_duplicate_port_rejected(self):
        netlist = Netlist("m")
        netlist.add_port("a", INPUT)
        with pytest.raises(ValueError):
            netlist.add_port("a", OUTPUT)

    def test_invalid_port_direction_rejected(self):
        with pytest.raises(ValueError):
            Netlist("m").add_port("a", "bidir")

    def test_duplicate_instance_rejected(self):
        netlist = make_simple()
        with pytest.raises(ValueError):
            netlist.add_instance("g1", "INV", {"A": "a", "Y": "n9"})

    def test_unknown_cell_rejected(self):
        with pytest.raises(KeyError):
            make_simple().add_instance("g9", "FOO", {})

    def test_unknown_pin_rejected(self):
        with pytest.raises(KeyError):
            make_simple().add_instance("g9", "INV", {"Z": "a"})

    def test_double_driver_rejected(self):
        netlist = make_simple()
        with pytest.raises(ValueError):
            netlist.add_instance("g3", "INV", {"A": "a", "Y": "n1"})

    def test_driver_and_loads_bookkeeping(self):
        netlist = make_simple()
        n1 = netlist.net("n1")
        assert n1.driver.name == "g1/Y"
        assert [p.name for p in n1.loads] == ["g2/A"]
        assert n1.has_driver

    def test_disconnect_pin(self):
        netlist = make_simple()
        pin = netlist.instance("g2").pin("A")
        netlist.disconnect(pin)
        assert pin.net is None
        assert netlist.net("n1").loads == []

    def test_remove_instance(self):
        netlist = make_simple()
        netlist.remove_instance("g2")
        assert "g2" not in netlist.instances
        assert netlist.net("y").driver is None


class TestQueries:
    def test_pin_by_name_roundtrip(self):
        netlist = make_simple()
        pin = netlist.pin_by_name("g1/A")
        assert pin.instance.name == "g1" and pin.port == "A"

    def test_pin_by_name_rejects_port_names(self):
        with pytest.raises(ValueError):
            make_simple().pin_by_name("a")

    def test_missing_net_and_instance_raise(self):
        netlist = make_simple()
        with pytest.raises(KeyError):
            netlist.net("nope")
        with pytest.raises(KeyError):
            netlist.instance("nope")

    def test_stats(self):
        stats = make_simple().stats()
        assert stats["instances"] == 2
        assert stats["sequential"] == 0
        assert stats["ports"] == 3
        assert stats["pins"] == 5

    def test_sequential_vs_combinational_split(self):
        netlist = make_simple()
        netlist.add_port("clk", INPUT)
        netlist.add_instance("ff", "DFF", {"D": "n1", "CK": "clk", "Q": "q"})
        assert [i.name for i in netlist.sequential_instances()] == ["ff"]
        assert len(netlist.combinational_instances()) == 2

    def test_observable_output_ports_respects_unobservable(self):
        netlist = make_simple()
        netlist.unobservable_ports.add("y")
        assert netlist.observable_output_ports() == []


class TestClone:
    def test_clone_is_structurally_identical(self):
        netlist = make_simple()
        netlist.net("n1").tied = 1
        netlist.unobservable_ports.add("y")
        clone = netlist.clone("copy")
        assert clone.name == "copy"
        assert clone.stats() == netlist.stats()
        assert clone.net("n1").tied == 1
        assert clone.unobservable_ports == {"y"}

    def test_clone_is_independent(self):
        netlist = make_simple()
        clone = netlist.clone()
        clone.net("n1").tied = 0
        clone.remove_instance("g2")
        assert netlist.net("n1").tied is None
        assert "g2" in netlist.instances


class TestMerge:
    def test_merge_prefixes_names(self):
        merged = merge_netlists("top", [("u0", make_simple()), ("u1", make_simple())])
        assert "u0.g1" in merged.instances
        assert "u1.g1" in merged.instances
        assert "u0.n1" in merged.nets
        assert len(merged.instances) == 4


class TestSignatureMemo:
    """The memoised signature always equals a fresh digest of the netlist.

    Each case warms the memo, mutates through one path, and compares the
    memoised answer with an uncached digest of the mutated state.
    """

    @staticmethod
    def check(netlist, mutate):
        before = netlist_signature(netlist)
        mutate(netlist)
        after = netlist_signature(netlist)
        assert after == _structural_digest(netlist)
        assert after != before

    def test_add_instance(self):
        self.check(make_simple(), lambda n: n.add_instance(
            "g3", "INV", {"A": "b", "Y": "n3"}))

    def test_connect(self):
        def mutate(netlist):
            netlist.connect(netlist.instance("g2").pin("A"), "a")
        self.check(make_simple(), mutate)

    def test_disconnect(self):
        self.check(make_simple(), lambda n: n.disconnect(
            n.instance("g1").pin("B")))

    def test_remove_instance(self):
        self.check(make_simple(), lambda n: n.remove_instance("g2"))

    def test_tie_net(self):
        self.check(make_simple(), lambda n: tie_net(n, "n1", 1))

    def test_tied_input_port(self):
        self.check(make_simple(), lambda n: tie_port(n, "a", 0))

    def test_disconnect_output_port(self):
        def mutate(netlist):
            disconnect_output_port(netlist, "y")
            assert "y" in netlist.unobservable_ports
        self.check(make_simple(), mutate)

    def test_direct_tied_write_on_a_clone(self):
        # As scan_analysis ties scan enables on its clone: no API call.
        original = make_simple()
        clone = original.clone("simple_se_tied")
        netlist_signature(original)

        def mutate(netlist):
            netlist.net("b").tied = 1
        self.check(clone, mutate)
        assert netlist_signature(original) == _structural_digest(original)

    def test_clone_with_a_new_name(self):
        netlist = make_simple()
        signature = netlist_signature(netlist)
        renamed = netlist.clone("other")
        assert netlist_signature(renamed) == _structural_digest(renamed)
        assert netlist_signature(renamed) != signature

    def test_rename_in_place(self):
        self.check(make_simple(), lambda n: setattr(n, "name", "renamed"))

    def test_structural_clone_hashes_the_same(self):
        netlist = make_simple()
        tie_net(netlist, "n1", 0)
        disconnect_output_port(netlist, "y")
        signature = netlist_signature(netlist)
        clone = netlist.clone()
        assert netlist_signature(clone) == signature
        assert netlist_signature(netlist) == signature  # memo hit
