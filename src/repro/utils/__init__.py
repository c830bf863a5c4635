"""Small shared utilities: bit-vector helpers, table rendering, timers."""

from repro.utils.bitvec import (
    bit,
    bits_of,
    count_ones,
    mask,
)
from repro.utils.tables import Table
from repro.utils.timing import Stopwatch

__all__ = [
    "bit",
    "bits_of",
    "count_ones",
    "mask",
    "Table",
    "Stopwatch",
]
