"""Unit tests for repro.utils (bit vectors, tables)."""

import pytest

from repro.utils.bitvec import (
    bit,
    bits_of,
    count_ones,
    mask,
    sign_extend,
)
from repro.utils.tables import Table


class TestBitvec:
    def test_mask_values(self):
        assert mask(0) == 0
        assert mask(1) == 1
        assert mask(8) == 0xFF
        assert mask(32) == 0xFFFFFFFF

    def test_mask_negative_raises(self):
        with pytest.raises(ValueError):
            mask(-1)

    def test_bit_extraction(self):
        assert bit(0b1010, 1) == 1
        assert bit(0b1010, 0) == 0
        assert bit(0b1010, 3) == 1

    def test_bit_negative_index_raises(self):
        with pytest.raises(ValueError):
            bit(1, -1)

    def test_bits_of_width(self):
        assert bits_of(5, 8) == "00000101"
        assert bits_of(0x1FF, 8) == "11111111"  # truncated to width

    def test_count_ones(self):
        assert count_ones(0) == 0
        assert count_ones(0b10110) == 3

    def test_count_ones_negative_raises(self):
        with pytest.raises(ValueError):
            count_ones(-5)

    def test_sign_extend_positive(self):
        assert sign_extend(0b0101, 4, 8) == 0b0101

    def test_sign_extend_negative(self):
        assert sign_extend(0b1101, 4, 8) == 0b11111101


class TestTable:
    def test_render_contains_headers_and_rows(self):
        table = Table(["Source", "#"], title="demo")
        table.add_row(["Scan", 19142])
        text = table.render()
        assert "demo" in text
        assert "Source" in text
        assert "19,142" in text

    def test_row_length_mismatch_raises(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_float_formatting(self):
        table = Table(["x"])
        table.add_row([3.14159])
        assert "3.14" in table.render()

    def test_str_matches_render(self):
        table = Table(["x"])
        table.add_row([1])
        assert str(table) == table.render()
