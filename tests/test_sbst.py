"""Tests for the SBST substrate: assembler, program generation, toggle
monitoring and fault grading."""

import re

import pytest

from repro.isa.opcodes import Opcode, decode_fields
from repro.sbst.assembler import AssemblerError, assemble, disassemble
from repro.sbst.grading import FaultGrader
from repro.sbst.monitor import ToggleMonitor
from repro.sbst.program_gen import generate_sbst_suite
from repro.soc.config import CpuConfig


class TestAssembler:
    def test_basic_program(self):
        words = assemble("""
            movi r1, 5       ; load
            add  r2, r1, r1  # double
            halt
        """)
        assert len(words) == 3
        fields = decode_fields(words[0])
        assert fields["opcode"] == int(Opcode.MOVI)
        assert fields["rd"] == 1 and fields["imm"] == 5

    def test_labels_and_branches(self):
        words = assemble("""
        start: addi r1, r1, 1
               bne r1, r2, start
               jump start
               halt
        """)
        # bne at address 1 targets address 0: offset = 0 - 1 - 1 = -2.
        fields = decode_fields(words[1])
        imm_width = 32 - 5 - 15
        assert fields["imm"] == (-2) & ((1 << imm_width) - 1)
        jump_fields = decode_fields(words[2])
        assert jump_fields["imm"] == (-3) & ((1 << imm_width) - 1)

    def test_hex_immediates(self):
        words = assemble("movi r1, 0x1F")
        assert decode_fields(words[0])["imm"] == 0x1F

    def test_errors(self):
        with pytest.raises(AssemblerError):
            assemble("frobnicate r1, r2, r3")
        with pytest.raises(AssemblerError):
            assemble("add r1, r2")          # missing operand
        with pytest.raises(AssemblerError):
            assemble("movi x1, 3")          # bad register
        with pytest.raises(AssemblerError):
            assemble("beq r1, r2, nowhere") # unknown label
        with pytest.raises(AssemblerError):
            assemble("dup: nop\ndup: nop")  # duplicate label
        with pytest.raises(AssemblerError):
            assemble("halt r1")             # unexpected operand

    def test_disassemble_roundtrip(self):
        source = "movi r1, 3\nadd r2, r1, r1\nstore r0, r2, 4\nbeq r2, r1, 1\nhalt"
        words = assemble(source)
        listing = disassemble(words)
        rebuilt = assemble("\n".join(listing))
        assert rebuilt == words

    def test_narrow_instruction_width(self):
        words = assemble("movi r1, 3\nhalt", instr_width=16, register_select_bits=2)
        assert all(w < (1 << 16) for w in words)


class TestProgramGeneration:
    def test_suite_for_each_config(self):
        for config in (CpuConfig.tiny(), CpuConfig.small(), CpuConfig.date13()):
            programs = generate_sbst_suite(config)
            names = {p.name for p in programs}
            assert names == {"register_march", "alu_sweep", "branch_kernel",
                             "memory_walk"}
            assert all(p.length > 0 for p in programs)
            assert all(max(p.words) < (1 << config.instr_width) for p in programs)

    def test_generation_is_deterministic(self):
        a = generate_sbst_suite(CpuConfig.tiny(), seed=11)
        b = generate_sbst_suite(CpuConfig.tiny(), seed=11)
        assert [p.words for p in a] == [p.words for p in b]


class TestMissionInputs:
    """A mission-input name or value the netlist cannot take fails when the
    monitor is built, naming the port and the netlist."""

    def test_unknown_port_is_rejected(self, tiny_soc):
        netlist = tiny_soc.cpu
        with pytest.raises(ValueError, match=re.escape(
                f"mission_inputs: 'dbg_enabel' is not an input port of "
                f"netlist {netlist.name!r}")):
            ToggleMonitor(netlist, mission_inputs={"dbg_enabel": 1})

    def test_invalid_value_is_rejected(self, tiny_soc):
        netlist = tiny_soc.cpu
        with pytest.raises(ValueError, match=re.escape(
                f"invalid logic value 7 on mission input 'dbg_enable' of "
                f"{netlist.name}")):
            ToggleMonitor(netlist, mission_inputs={"dbg_enable": 7})

    def test_known_ports_are_applied(self, tiny_soc):
        monitor = ToggleMonitor(tiny_soc.cpu, mission_inputs={"dbg_enable": 1})
        assert monitor.mission_inputs["dbg_enable"] == 1
        assert monitor.mission_inputs["rst_n"] == 1


class TestToggleMonitorAndGrading:
    @pytest.fixture(scope="class")
    def monitored(self, tiny_soc):
        programs = generate_sbst_suite(tiny_soc.config.cpu)
        monitor = ToggleMonitor(tiny_soc.cpu)
        patterns = monitor.run_suite(programs)
        return monitor, patterns

    def test_patterns_captured(self, monitored, tiny_soc):
        monitor, patterns = monitored
        assert len(patterns) > 50
        controllable = set(patterns.controllable_nets)
        assert set(tiny_soc.cpu.input_ports()) <= controllable
        words = patterns.as_parallel_words()
        assert set(words) == controllable

    def test_debug_inputs_are_quiescent(self, monitored):
        monitor, _ = monitored
        quiescent = set(monitor.quiescent_nets())
        assert "jtag_tck" in quiescent
        assert "dbg_enable" in quiescent
        assert "clk" in quiescent  # constant input port in this abstraction
        # Functional activity exists somewhere.
        assert any(count > 0 for count in monitor.toggle_counts.values())

    def test_activity_report(self, monitored):
        monitor, _ = monitored
        report = monitor.activity_report(top=5)
        assert len(report) == 5
        assert all(":" in line for line in report)

    def test_grading_and_coverage_gain(self, monitored, tiny_soc, tiny_flow_report):
        _, patterns = monitored
        grader = FaultGrader(tiny_soc.cpu)
        comparison = grader.compare_with_pruning(
            patterns, tiny_flow_report.online_untestable)
        assert 0.0 < comparison.coverage_before < 1.0
        # Pruning the on-line untestable faults must not lower the coverage,
        # and should raise it noticeably (the paper's headline effect).
        assert comparison.coverage_after >= comparison.coverage_before
        assert comparison.coverage_gain > 0.01
        assert "coverage" in comparison.summary()

    def test_detected_faults_are_not_online_untestable(self, monitored, tiny_soc,
                                                       tiny_flow_report):
        """Soundness: no fault identified as on-line untestable may be detected
        by mission-mode functional patterns under mission observability."""
        _, patterns = monitored
        grader = FaultGrader(tiny_soc.cpu, observe_state_inputs=False)
        scan_faults = tiny_flow_report.scan_result.serial_input_faults
        sample = sorted(scan_faults)[:50]
        detected = grader.grade(patterns, sample)
        assert detected == set()
