"""Unit tests for scan insertion and scan-chain tracing."""

from repro.netlist.builder import NetlistBuilder
from repro.netlist.validate import check_netlist
from repro.scan.chain_tracer import ScanChainTracer, trace_scan_chains
from repro.scan.insertion import insert_scan
from repro.simulation.sequential import SequentialSimulator


def build_plain_register_circuit(n_flops: int = 8):
    """A bank of plain DFFs capturing an input bus, driving an output bus."""
    b = NetlistBuilder("regs")
    clk = b.add_input("clk")
    d = b.add_input_bus("d", n_flops)
    q_ports = b.add_output_bus("q", n_flops)
    for i in range(n_flops):
        q = b.dff(d[i], clk, name=f"ff{i}")
        b.buf(q, output=q_ports[i])
    return b.build()


class TestScanInsertion:
    def test_flops_replaced_and_chain_built(self):
        netlist = build_plain_register_circuit(8)
        result = insert_scan(netlist, n_chains=2, buffer_every=2)
        assert result.total_cells == 8
        assert len(result.chains) == 2
        assert all(netlist.instance(c).cell.name == "SDFF"
                   for chain in result.chains for c in chain)
        assert result.scan_in_ports == ["scan_in0", "scan_in1"]
        assert result.scan_out_ports == ["scan_out0", "scan_out1"]
        assert "scan_enable" in netlist.ports
        assert check_netlist(netlist) == []

    def test_no_flops_is_a_noop(self):
        b = NetlistBuilder("comb")
        a = b.add_input("a")
        y = b.add_output("y")
        b.inv(a, output=y)
        netlist = b.build()
        result = insert_scan(netlist)
        assert result.total_cells == 0
        assert "scan_enable" not in netlist.ports

    def test_annotation_written(self):
        netlist = build_plain_register_circuit(4)
        insert_scan(netlist, n_chains=1)
        info = netlist.annotations["scan_insertion"]
        assert info["scan_enable_port"] == "scan_enable"
        assert len(info["chains"][0]) == 4

    def test_buffers_inserted_on_path(self):
        netlist = build_plain_register_circuit(8)
        result = insert_scan(netlist, n_chains=1, buffer_every=2)
        # 8 cells with a buffer every 2 (except after the last) plus the
        # scan-out tail buffer.
        assert len(result.path_buffers) == 4
        assert all(netlist.instance(n).cell.name == "BUF"
                   for n in result.path_buffers)

    def test_mission_behaviour_preserved(self):
        """With scan_enable held at 0 the scanned design behaves identically."""
        reference = build_plain_register_circuit(4)
        scanned = build_plain_register_circuit(4)
        insert_scan(scanned, n_chains=1)

        ref_sim = SequentialSimulator(reference)
        scan_sim = SequentialSimulator(scanned)
        stimulus = [{f"d[{i}]": (cycle >> i) & 1 for i in range(4)}
                    for cycle in range(8)]
        for vector in stimulus:
            [ref_out] = ref_sim.run([vector])
            scanned_vector = dict(vector)
            scanned_vector.update({"scan_enable": 0, "scan_in0": 0})
            [scan_out] = scan_sim.run([scanned_vector])
            for port, value in ref_out.items():
                assert scan_out[port] == value

    def test_scan_shift_operation(self):
        """With scan_enable=1 the chain shifts the serial input through."""
        netlist = build_plain_register_circuit(4)
        insert_scan(netlist, n_chains=1, buffer_every=0)
        sim = SequentialSimulator(netlist)
        # Shift in 1,0,1,1 then check the scan-out port follows 4 cycles later.
        stream = [1, 0, 1, 1, 0, 0, 0, 0]
        observed = []
        for bit in stream:
            values = sim.step({"scan_enable": 1, "scan_in0": bit,
                               **{f"d[{i}]": 0 for i in range(4)}})
            observed.append(values["scan_out0"])
        assert observed[4:8] == [1, 0, 1, 1]


class TestScanChainTracer:
    def _scanned(self, n_flops=8, n_chains=2, buffer_every=2):
        netlist = build_plain_register_circuit(n_flops)
        insert_scan(netlist, n_chains=n_chains, buffer_every=buffer_every)
        return netlist

    def test_discovers_scan_in_ports(self):
        netlist = self._scanned()
        tracer = ScanChainTracer(netlist)
        assert set(tracer.discover_scan_in_ports()) == {"scan_in0", "scan_in1"}

    def test_discovers_scan_enable_nets(self):
        netlist = self._scanned()
        tracer = ScanChainTracer(netlist)
        assert tracer.discover_scan_enable_nets() == {"scan_enable"}

    def test_traced_chains_match_insertion(self):
        netlist = self._scanned(n_flops=9, n_chains=3, buffer_every=2)
        inserted = netlist.annotations["scan_insertion"]["chains"]
        chains = trace_scan_chains(netlist)
        assert len(chains) == 3
        traced = {chain.scan_in_port: chain.cells for chain in chains}
        for index, members in enumerate(inserted):
            assert traced[f"scan_in{index}"] == members

    def test_path_instances_and_scan_out_found(self):
        netlist = self._scanned(n_flops=8, n_chains=1, buffer_every=2)
        chain = trace_scan_chains(netlist)[0]
        assert chain.scan_out_port == "scan_out0"
        assert chain.length == 8
        # 3 intermediate buffers + 1 tail buffer.
        assert len(chain.path_instances) == 4
        assert chain.scan_enable_nets == {"scan_enable"}

    def test_tracing_without_buffers(self):
        netlist = self._scanned(n_flops=4, n_chains=1, buffer_every=0)
        chain = trace_scan_chains(netlist)[0]
        assert chain.length == 4
        assert len(chain.path_instances) == 1  # only the scan-out tail buffer

    def test_trace_on_generated_core(self, tiny_soc):
        chains = trace_scan_chains(tiny_soc.cpu)
        assert len(chains) == len(tiny_soc.scan.chains)
        traced_cells = sum(chain.length for chain in chains)
        assert traced_cells == tiny_soc.scan.total_cells
