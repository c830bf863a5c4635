"""Unit tests for the shared ISA definition (opcodes, encoding, control table)."""

from hypothesis import given, strategies as st

from repro.isa.opcodes import (
    ALU_SUB,
    CONTROL_SIGNAL_NAMES,
    ControlSignals,
    Opcode,
    control_signals_for,
    decode_fields,
    encode_instruction,
    field_layout,
)


class TestOpcodeTable:
    def test_all_opcodes_have_control_signals(self):
        for opcode in Opcode:
            signals = control_signals_for(int(opcode))
            assert isinstance(signals, ControlSignals)

    def test_undefined_opcode_behaves_like_nop(self):
        assert control_signals_for(31) == ControlSignals()

    def test_arithmetic_opcodes_write_registers(self):
        for opcode in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.ADDI, Opcode.MOVI):
            assert control_signals_for(int(opcode)).reg_we == 1

    def test_memory_opcodes(self):
        load = control_signals_for(int(Opcode.LOAD))
        store = control_signals_for(int(Opcode.STORE))
        assert load.mem_re == 1 and load.wb_from_mem == 1 and load.reg_we == 1
        assert store.mem_we == 1 and store.reg_we == 0

    def test_branch_opcodes_do_not_write(self):
        for opcode in (Opcode.BEQ, Opcode.BNE, Opcode.JUMP):
            signals = control_signals_for(int(opcode))
            assert signals.reg_we == 0 and signals.mem_we == 0

    def test_halt(self):
        assert control_signals_for(int(Opcode.HALT)).halt == 1

    def test_alu_op_encoding_in_dict(self):
        signals = control_signals_for(int(Opcode.SUB)).as_dict()
        assert (signals["alu_op0"], signals["alu_op1"], signals["alu_op2"]) == (1, 0, 0)
        assert ALU_SUB == 1

    def test_control_signal_names_stable(self):
        assert "reg_we" in CONTROL_SIGNAL_NAMES
        assert "alu_op2" in CONTROL_SIGNAL_NAMES
        assert len(CONTROL_SIGNAL_NAMES) == 12


class TestEncoding:
    def test_field_layout_partition(self):
        layout = field_layout(32, 5)
        assert layout["opcode"] == (27, 5)
        assert layout["rd"] == (22, 5)
        assert layout["imm"] == (0, 12)
        # Fields are disjoint and cover the word.
        total = sum(width for _, width in layout.values())
        assert total == 32

    def test_encode_decode_roundtrip(self):
        word = encode_instruction(Opcode.ADDI, rd=3, rs1=1, rs2=0, imm=42,
                                  instr_width=32, register_select_bits=5)
        fields = decode_fields(word, 32, 5)
        assert fields["opcode"] == int(Opcode.ADDI)
        assert fields["rd"] == 3 and fields["rs1"] == 1 and fields["imm"] == 42

    @given(st.sampled_from(list(Opcode)),
           st.integers(min_value=0, max_value=7),
           st.integers(min_value=0, max_value=7),
           st.integers(min_value=0, max_value=7),
           st.integers(min_value=0, max_value=255))
    def test_roundtrip_property_small_word(self, opcode, rd, rs1, rs2, imm):
        word = encode_instruction(opcode, rd=rd, rs1=rs1, rs2=rs2, imm=imm,
                                  instr_width=24, register_select_bits=3)
        fields = decode_fields(word, 24, 3)
        assert fields["opcode"] == int(opcode)
        assert fields["rd"] == rd and fields["rs1"] == rs1 and fields["rs2"] == rs2
        assert fields["imm"] == imm & ((1 << (24 - 5 - 9)) - 1)

    def test_immediate_truncation(self):
        word = encode_instruction(Opcode.MOVI, rd=1, imm=0xFFFFF,
                                  instr_width=16, register_select_bits=2)
        fields = decode_fields(word, 16, 2)
        assert fields["imm"] == 0xFFFFF & 0x1F  # 5 immediate bits remain
