"""Mission memory map: regions, legality checks, example maps from the paper.

The paper's case study connects a 32-bit address bus to two memory cores and
observes that, because only a small part of the 2^32 address space is mapped,
most address bits hold a constant value during the whole mission — the root
cause of the §3.3 on-line functionally untestable faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List


@dataclass(frozen=True)
class MemoryRegion:
    """A contiguous, byte-addressed memory region."""

    name: str
    base: int
    size: int

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError(f"region {self.name!r}: base must be non-negative")
        if self.size <= 0:
            raise ValueError(f"region {self.name!r}: size must be positive")

    @property
    def end(self) -> int:
        """Last legal address of the region (inclusive)."""
        return self.base + self.size - 1

    def contains(self, address: int) -> bool:
        return self.base <= address <= self.end

    def overlaps(self, other: "MemoryRegion") -> bool:
        return self.base <= other.end and other.base <= self.end

    def __str__(self) -> str:
        return f"{self.name}: 0x{self.base:08X}-0x{self.end:08X} ({self.size} bytes)"


class MemoryMap:
    """A set of non-overlapping memory regions on an address bus."""

    def __init__(self, address_width: int = 32,
                 regions: Iterable[MemoryRegion] = ()) -> None:
        if address_width <= 0:
            raise ValueError("address_width must be positive")
        self.address_width = address_width
        self.regions: List[MemoryRegion] = []
        for region in regions:
            self.add_region(region)

    def add_region(self, region: MemoryRegion) -> MemoryRegion:
        if region.end >= (1 << self.address_width):
            raise ValueError(
                f"region {region.name!r} exceeds the {self.address_width}-bit address space")
        for existing in self.regions:
            if existing.overlaps(region):
                raise ValueError(
                    f"region {region.name!r} overlaps {existing.name!r}")
        self.regions.append(region)
        return region

    def __iter__(self) -> Iterator[MemoryRegion]:
        return iter(self.regions)

    def __len__(self) -> int:
        return len(self.regions)

    def is_legal(self, address: int) -> bool:
        """Is the address inside some mapped region?"""
        return any(region.contains(address) for region in self.regions)

    def region_of(self, address: int) -> MemoryRegion:
        for region in self.regions:
            if region.contains(address):
                return region
        raise KeyError(f"address 0x{address:08X} is not mapped")

    def mapped_bytes(self) -> int:
        return sum(region.size for region in self.regions)

    def __str__(self) -> str:
        lines = [f"MemoryMap ({self.address_width}-bit address bus)"]
        lines.extend(f"  {region}" for region in self.regions)
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # reference maps
    # ------------------------------------------------------------------ #
    @classmethod
    def date13_case_study(cls) -> "MemoryMap":
        """The memory configuration used for the Table-I style benchmark.

        The paper's SoC maps a Flash and an SRAM such that only the 18 least
        significant address bits plus bit 30 can legally take both logic
        values.  We use a Flash at 0x0000_0000 (256 KiB) and an SRAM at
        0x4000_0000 (128 KiB), which yields exactly that set of free bits
        (0..17 and 30) under the "can the bit assume both values over the
        legal address set" criterion.
        """
        return cls(address_width=32, regions=[
            MemoryRegion("flash", 0x0000_0000, 256 * 1024),
            MemoryRegion("sram", 0x4000_0000, 128 * 1024),
        ])

    @classmethod
    def date13_verbatim(cls) -> "MemoryMap":
        """The ranges exactly as printed in §4 of the paper.

        Flash 0x0007_8000–0x0007_FFFF and RAM 0x4000_0000–0x4001_FFFF.  Note
        that under the union criterion this yields free bits {0..18, 30}; the
        paper states {0..17, 30} — see EXPERIMENTS.md for the discussion.
        """
        return cls(address_width=32, regions=[
            MemoryRegion("flash", 0x0007_8000, 0x0007_FFFF - 0x0007_8000 + 1),
            MemoryRegion("sram", 0x4000_0000, 0x4001_FFFF - 0x4000_0000 + 1),
        ])

    @classmethod
    def background_example(cls) -> "MemoryMap":
        """The explanatory example of §3.3: 1024x8 RAM + 4096x8 Flash mapped
        back-to-back from address 0 on a 32-bit bus (12 address bits used)."""
        return cls(address_width=32, regions=[
            MemoryRegion("ram", 0x0000_0000, 1024),
            MemoryRegion("flash", 0x0000_0400, 4096),
        ])
