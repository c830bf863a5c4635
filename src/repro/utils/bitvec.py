"""Bit-vector helpers used throughout the netlist generators and simulators.

All helpers operate on plain Python integers interpreted as unsigned
bit-vectors of an explicit width.  Keeping these as free functions (rather
than a BitVector class) keeps hot loops in the simulators cheap.
"""

from __future__ import annotations


def mask(width: int) -> int:
    """Return an all-ones mask of ``width`` bits."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def bit(value: int, index: int) -> int:
    """Return bit ``index`` (LSB = 0) of ``value`` as 0 or 1."""
    if index < 0:
        raise ValueError(f"bit index must be non-negative, got {index}")
    return (value >> index) & 1


def bits_of(value: int, width: int) -> str:
    """Render ``value`` as a binary string of exactly ``width`` characters."""
    return format(value & mask(width), f"0{width}b")


def count_ones(value: int) -> int:
    """Population count of a non-negative integer."""
    if value < 0:
        raise ValueError("count_ones expects a non-negative integer")
    return bin(value).count("1")


def sign_extend(value: int, width: int, target_width: int = 32) -> int:
    """Sign-extend ``value`` of ``width`` bits to ``target_width`` bits."""
    value &= mask(width)
    if value & (1 << (width - 1)):
        value |= mask(target_width) & ~mask(width)
    return value & mask(target_width)
