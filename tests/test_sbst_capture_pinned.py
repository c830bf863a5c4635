"""Pinned SBST capture on the three shipped cores.

``tests/data/sbst_capture_pinned.json`` holds, for ``tiny``, ``small`` and
``date13`` at SBST suite seeds 2013 and 7, what
:meth:`repro.sbst.monitor.ToggleMonitor.run_suite` captures: the cycle
count and sha256 digests of the sorted toggle counts, of
``as_parallel_words()`` and of :func:`repro.sbst.monitor.pattern_windows`
at word sizes 64 and 7 (keys in their order).  The test re-captures every
case and requires each entry to match, so a change to how the core is
simulated or how patterns are stored cannot move a captured bit.

Re-record (only when a change is *meant* to move the capture)::

    PYTHONPATH=src python -m tests.test_sbst_capture_pinned
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Dict

import pytest

from repro.sbst import ToggleMonitor, generate_sbst_suite
from repro.sbst.monitor import pattern_windows
from repro.soc.config import SoCConfig
from repro.soc.soc_builder import build_soc

PINNED = Path(__file__).resolve().parent / "data" / "sbst_capture_pinned.json"

CONFIGS = ("tiny", "small", "date13")
SEEDS = (2013, 7)
WORD_SIZES = (64, 7)


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


@lru_cache(maxsize=None)
def _soc(name: str):
    return build_soc(SoCConfig.from_name(name))


def capture_case(name: str, seed: int) -> Dict[str, object]:
    """One pinned entry: capture the suite and digest what it produced."""
    soc = _soc(name)
    monitor = ToggleMonitor(soc.cpu)
    patterns = monitor.run_suite(generate_sbst_suite(soc.config.cpu,
                                                     seed=seed))
    entry: Dict[str, object] = {
        "cycles": len(patterns),
        "toggle_counts_sha256": _digest(sorted(monitor.toggle_counts.items())),
        "parallel_words_sha256": _digest(
            list(patterns.as_parallel_words().items())),
    }
    for size in WORD_SIZES:
        entry[f"windows_{size}_sha256"] = _digest(
            [[list(words.items()), count]
             for words, count in pattern_windows(patterns, size)])
    return entry


def record() -> Dict[str, Dict[str, object]]:
    return {f"{name}/{seed}": capture_case(name, seed)
            for name in CONFIGS for seed in SEEDS}


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Dict[str, object]]:
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("name", CONFIGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_capture_matches_pinned(pinned, name, seed):
    assert capture_case(name, seed) == pinned[f"{name}/{seed}"]


if __name__ == "__main__":
    PINNED.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")
