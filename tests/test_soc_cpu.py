"""Tests for the CPU sub-blocks, the core generator and the SoC builder."""

import pytest

from repro.isa.opcodes import Opcode, control_signals_for, encode_instruction
from repro.netlist.builder import NetlistBuilder
from repro.netlist.validate import check_netlist
from repro.simulation.sequential import SequentialSimulator
from repro.simulation.simulator import CombinationalSimulator
from repro.soc.alu import build_alu
from repro.soc.btb import build_btb
from repro.soc.config import CpuConfig, SoCConfig
from repro.soc.cpu import build_cpu_core
from repro.soc.debug_logic import DEBUG_CONTROL_PORTS
from repro.soc.decoder import build_decoder
from repro.soc.regfile import build_register_file
from repro.soc.soc_builder import build_soc
from repro.utils.bitvec import bit


def _drive(width, name, value):
    return {f"{name}[{i}]": (value >> i) & 1 for i in range(width)}


def _read(values, nets):
    return sum(values[net] << i for i, net in enumerate(nets))


class TestDecoder:
    def test_matches_control_table(self):
        b = NetlistBuilder("dec")
        opcode = b.add_input_bus("op", 5)
        controls = build_decoder(b, opcode)
        sim = CombinationalSimulator(b.build())
        for code in range(32):
            values = sim.evaluate(_drive(5, "op", code))
            expected = control_signals_for(code).as_dict()
            for name, value in expected.items():
                assert values[controls[name]] == value, (code, name)

    def test_requires_five_bits(self):
        b = NetlistBuilder("dec")
        with pytest.raises(ValueError):
            build_decoder(b, b.add_input_bus("op", 4))


class TestAlu:
    @pytest.fixture(scope="class")
    def alu_sim(self):
        b = NetlistBuilder("alu")
        a = b.add_input_bus("a", 8)
        c = b.add_input_bus("b", 8)
        op = b.add_input_bus("op", 3)
        alu = build_alu(b, a, c, op, mult_width=4, has_barrel_shifter=True)
        return CombinationalSimulator(b.build()), alu

    REFERENCE = {
        0: lambda x, y: (x + y) & 0xFF,
        1: lambda x, y: (x - y) & 0xFF,
        2: lambda x, y: x & y,
        3: lambda x, y: x | y,
        4: lambda x, y: x ^ y,
        5: lambda x, y: (x << (y & 0x7)) & 0xFF,
        6: lambda x, y: ((x & 0xF) * (y & 0xF)) & 0xFF,
        7: lambda x, y: y,
    }

    @pytest.mark.parametrize("op", list(range(8)))
    def test_operations(self, alu_sim, op):
        sim, alu = alu_sim
        for x, y in ((0, 0), (5, 3), (0xAA, 0x55), (0xFF, 0x01), (17, 9)):
            values = sim.evaluate({**_drive(8, "a", x), **_drive(8, "b", y),
                                   **_drive(3, "op", op)})
            assert _read(values, alu.result) == self.REFERENCE[op](x, y), (op, x, y)

    def test_zero_flag(self, alu_sim):
        sim, alu = alu_sim
        values = sim.evaluate({**_drive(8, "a", 5), **_drive(8, "b", 5),
                               **_drive(3, "op", 1)})
        assert values[alu.zero_flag] == 1
        values = sim.evaluate({**_drive(8, "a", 5), **_drive(8, "b", 4),
                               **_drive(3, "op", 1)})
        assert values[alu.zero_flag] == 0

    def test_operand_width_mismatch_rejected(self):
        b = NetlistBuilder("alu")
        with pytest.raises(ValueError):
            build_alu(b, b.add_input_bus("a", 4), b.add_input_bus("b", 5),
                      b.add_input_bus("op", 3))


class TestRegisterFile:
    def test_write_then_read(self):
        b = NetlistBuilder("rf")
        clk = b.add_input("clk")
        wdata = b.add_input_bus("wd", 4)
        waddr = b.add_input_bus("wa", 2)
        we = b.add_input("we")
        ra = b.add_input_bus("ra", 2)
        rb = b.add_input_bus("rb", 2)
        rf = build_register_file(b, clk, 4, 4, wdata, waddr, we, ra, rb)
        outs_a = b.add_output_bus("qa", 4)
        for i in range(4):
            b.buf(rf.read_data_a[i], output=outs_a[i])
        sim = SequentialSimulator(b.build())

        # Write 0b1001 to r2, then read it back on port A.
        sim.step({**_drive(4, "wd", 0b1001), **_drive(2, "wa", 2), "we": 1,
                  **_drive(2, "ra", 0), **_drive(2, "rb", 0)})
        values = sim.step({**_drive(4, "wd", 0), **_drive(2, "wa", 0), "we": 0,
                           **_drive(2, "ra", 2), **_drive(2, "rb", 1)})
        assert _read(values, [f"qa[{i}]" for i in range(4)]) == 0b1001

    def test_write_disabled_preserves_contents(self):
        b = NetlistBuilder("rf")
        clk = b.add_input("clk")
        wdata = b.add_input_bus("wd", 2)
        waddr = b.add_input_bus("wa", 1)
        we = b.add_input("we")
        ra = b.add_input_bus("ra", 1)
        rb = b.add_input_bus("rb", 1)
        rf = build_register_file(b, clk, 2, 2, wdata, waddr, we, ra, rb)
        sim = SequentialSimulator(b.build())
        sim.step({**_drive(2, "wd", 0b11), **_drive(1, "wa", 1), "we": 1,
                  **_drive(1, "ra", 1), **_drive(1, "rb", 0)})
        sim.step({**_drive(2, "wd", 0b00), **_drive(1, "wa", 1), "we": 0,
                  **_drive(1, "ra", 1), **_drive(1, "rb", 0)})
        stored = [sim.peek(q) for q in rf.registers[1]]
        assert stored == [1, 1]


class TestBtb:
    def test_update_then_hit(self):
        b = NetlistBuilder("btb")
        clk = b.add_input("clk")
        rst = b.add_input("rst_n")
        pc = b.add_input_bus("pc", 6)
        target = b.add_input_bus("tgt", 6)
        update = b.add_input("upd")
        btb = build_btb(b, clk, rst, pc, target, update, n_entries=4)
        hit_port = b.add_output("hit")
        b.buf(btb.hit, output=hit_port)
        pred_ports = b.add_output_bus("pred", 6)
        for i in range(6):
            b.buf(btb.predicted_target[i], output=pred_ports[i])
        sim = SequentialSimulator(b.build())

        base = {"rst_n": 1, "upd": 0}
        # Miss before any update.
        values = sim.step({**base, **_drive(6, "pc", 0b000101), **_drive(6, "tgt", 0)})
        assert values["hit"] == 0
        # Record target 0b110011 for this PC.
        sim.step({**base, "upd": 1, **_drive(6, "pc", 0b000101),
                  **_drive(6, "tgt", 0b110011)})
        # Look it up again: hit with the stored target.
        values = sim.step({**base, **_drive(6, "pc", 0b000101), **_drive(6, "tgt", 0)})
        assert values["hit"] == 1
        assert _read(values, [f"pred[{i}]" for i in range(6)]) == 0b110011
        # A different tag at the same index misses.
        values = sim.step({**base, **_drive(6, "pc", 0b111101), **_drive(6, "tgt", 0)})
        assert values["hit"] == 0

    def test_address_registers_recorded(self):
        b = NetlistBuilder("btb")
        clk = b.add_input("clk")
        rst = b.add_input("rst_n")
        pc = b.add_input_bus("pc", 6)
        target = b.add_input_bus("tgt", 6)
        update = b.add_input("upd")
        btb = build_btb(b, clk, rst, pc, target, update, n_entries=2)
        names = {record.name for record in btb.address_registers}
        assert names == {"btb_t0", "btb_t1", "btb_g0", "btb_g1"}


class TestCpuCore:
    @pytest.mark.parametrize("config_name", ["tiny", "small"])
    def test_structure_is_clean(self, config_name, tiny_soc, small_soc):
        soc = {"tiny": tiny_soc, "small": small_soc}[config_name]
        assert check_netlist(soc.cpu) == []
        stats = soc.cpu.stats()
        assert stats["sequential"] > 0
        assert stats["combinational"] > stats["sequential"]

    def test_ports_present(self, tiny_soc):
        cpu = tiny_soc.cpu
        cfg = tiny_soc.config.cpu
        for i in range(cfg.addr_width):
            assert f"mem_addr[{i}]" in cpu.ports
        for i in range(cfg.data_width):
            assert f"mem_wdata[{i}]" in cpu.ports
            assert f"dbg_gpr_obs[{i}]" in cpu.ports
        for port in DEBUG_CONTROL_PORTS:
            assert port in cpu.ports

    def test_annotations(self, tiny_soc):
        cpu = tiny_soc.cpu
        records = cpu.annotations["address_registers"]
        names = {r["name"] for r in records}
        assert "agu_pc" in names and "agu_mar" in names
        assert any(name.startswith("btb_") for name in names)
        for record in records:
            assert len(record["ff_instances"]) == len(record["address_bits"])
            for ff_name in record["ff_instances"]:
                assert ff_name in cpu.instances
            for q_net in record["q_nets"]:
                assert q_net in cpu.nets
        assert cpu.annotations["core_config"].name == "tiny_core"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CpuConfig(data_width=2).validate()
        with pytest.raises(ValueError):
            CpuConfig(instr_width=8).validate()
        with pytest.raises(ValueError):
            CpuConfig(mult_width=64).validate()

    def test_no_debug_variant(self):
        from dataclasses import replace

        config = replace(CpuConfig.tiny(), has_debug=False)
        cpu = build_cpu_core(config)
        assert "jtag_tck" not in cpu.ports
        assert "debug_interface" not in cpu.annotations
        assert check_netlist(cpu) == []

    def test_core_executes_instruction_stream(self, tiny_soc):
        """Functional smoke test: a MOVI reaches the register file and the
        halted output asserts after a HALT instruction."""
        cfg = tiny_soc.config.cpu
        cpu = tiny_soc.cpu
        sim = SequentialSimulator(cpu)
        movi = encode_instruction(Opcode.MOVI, rd=1, imm=5,
                                  instr_width=cfg.instr_width,
                                  register_select_bits=cfg.register_select_bits)
        halt = encode_instruction(Opcode.HALT, instr_width=cfg.instr_width,
                                  register_select_bits=cfg.register_select_bits)
        base = {p: 0 for p in cpu.input_ports()}
        base["rst_n"] = 1

        def instruction_inputs(word):
            inputs = dict(base)
            for i in range(cfg.instr_width):
                inputs[f"instr_in[{i}]"] = bit(word, i)
            return inputs

        halted = []
        for word in (movi, movi, halt, halt):
            values = sim.step(instruction_inputs(word))
            halted.append(values["cpu_halted"])
        # The HALT instruction is captured into the IR one cycle after it is
        # presented, so the halted flag rises on the final cycle.
        assert halted[-1] == 1
        assert halted[0] == 0
        # The MOVI destination register now holds the immediate value.
        r1 = [sim.peek(q) for q in _register_q_nets(cpu, 1)]
        assert sum(v << i for i, v in enumerate(r1)) == 5


def _register_q_nets(cpu, index):
    width = cpu.annotations["core_config"].data_width
    return [cpu.instance(f"rf_r{index}_ff{i}").pin("Q").net.name
            for i in range(width)]


class TestSoCBuilder:
    def test_default_is_date13(self):
        config = SoCConfig.date13()
        assert config.cpu.data_width == 32
        assert config.memory_map is not None

    def test_tiny_soc_contents(self, tiny_soc):
        assert tiny_soc.scan is not None
        assert tiny_soc.scan.total_cells > 0
        assert tiny_soc.memory_map is not None
        assert tiny_soc.debug_interface is not None
        stats = tiny_soc.stats()
        assert stats["scan_cells"] == tiny_soc.scan.total_cells
        assert tiny_soc.structural_problems() == []

    def test_scan_disabled(self):
        soc = build_soc(SoCConfig(cpu=CpuConfig.tiny(), insert_scan=False))
        assert soc.scan is None
        assert "scan_enable" not in soc.cpu.ports

    def test_scaled_memory_map_for_narrow_bus(self, tiny_soc):
        memory_map = tiny_soc.memory_map
        assert memory_map.address_width == tiny_soc.config.cpu.addr_width
        from repro.memory.analysis import free_address_bits

        free = free_address_bits(memory_map)
        assert free and free != set(range(memory_map.address_width))

    def test_with_cpu_override(self):
        config = SoCConfig.tiny().with_cpu(n_registers=8)
        assert config.cpu.n_registers == 8
        assert config.cpu.data_width == CpuConfig.tiny().data_width
