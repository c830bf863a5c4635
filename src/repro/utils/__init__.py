"""Small shared utilities: bit-vector helpers and table rendering."""

from repro.utils.bitvec import (
    bit,
    bits_of,
    count_ones,
    mask,
)
from repro.utils.tables import Table

__all__ = [
    "bit",
    "bits_of",
    "count_ones",
    "mask",
    "Table",
]
