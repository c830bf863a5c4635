"""Lightweight wall-clock timing helpers for flow reports and benchmarks."""

from __future__ import annotations

import time
from typing import Dict, Optional


class Stopwatch:
    """Accumulates named wall-clock intervals.

    Times named phases, e.g. the per-phase analysis time (the paper
    highlights that the manipulated circuit is analysed in under a
    second).
    """

    def __init__(self) -> None:
        self._laps: Dict[str, float] = {}
        self._current: Optional[str] = None
        self._started_at = 0.0

    def start(self, name: str) -> None:
        """Start timing the phase ``name``; stops any phase in progress."""
        if self._current is not None:
            self.stop()
        self._current = name
        self._started_at = time.perf_counter()

    def stop(self) -> float:
        """Stop the current phase and return its elapsed seconds."""
        if self._current is None:
            raise RuntimeError("Stopwatch.stop() called with no phase running")
        elapsed = time.perf_counter() - self._started_at
        self._laps[self._current] = self._laps.get(self._current, 0.0) + elapsed
        self._current = None
        return elapsed

    def elapsed(self, name: str) -> float:
        """Total accumulated seconds for phase ``name`` (0.0 if never run)."""
        return self._laps.get(name, 0.0)

    @property
    def laps(self) -> Dict[str, float]:
        return dict(self._laps)

    def total(self) -> float:
        return sum(self._laps.values())

    def __enter__(self) -> "Stopwatch":
        self.start("total")
        return self

    def __exit__(self, *exc: object) -> None:
        if self._current is not None:
            self.stop()
