"""Shared pieces of the benchmark: paths, seeded inputs, output checks and
the percentile rule.

Everything here is pure (no ``repro`` import), so the self-tests can pin
input determinism and the checks without running a workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS = BENCH_DIR / "refs"
#: Run outputs (result captures, traces, scratch stores); git-ignored.
OUT = BENCH_DIR / "out"

WORKLOADS = ("sbst_grade_date13", "atpg_full_tiny", "service_mixed")

#: The seed the references were recorded for, and a held-out seed whose
#: references were recorded alongside but never used while tuning.
DEFAULT_SEED = 2013
HELD_OUT_SEED = 7
SHIPPED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

#: Set-up repetitions per run; ``setup_s`` is their median
#: (``sbst_grade_date13`` sets up once, see ``workloads.run_sbst``).
SETUP_REPS = 3

#: Worker processes of the SBST grader's pool: ``nproc`` of the reference box.
SBST_JOBS = 2

#: Faults per ``atpg_full_tiny`` iteration; every iteration draws its own
#: sample, so a run's median spans some ten samples and no single seed's
#: draw sets it.  The sample is drawn per reference verdict, each verdict's
#: share of the sample matching its share of the universe: the 3% of faults
#: that abort (AU) take about 70% of the search time, so a plain uniform
#: draw would swing an iteration's time with the number of AU faults it
#: holds.  48 faults hold one AU fault, about 2.5 s of search on the
#: reference box.
ATPG_SAMPLE = 48

#: The service request mix: {tiny, small} x {tie, random} x {stuck_at,
#: transition}.
SERVICE_SPECS: Tuple[Dict[str, str], ...] = tuple(
    {"design": design, "effort": effort, "fault_model": model}
    for design in ("tiny", "small")
    for effort in ("tie", "random")
    for model in ("stuck_at", "transition"))
#: Memory-warm requests per pass at least: whole rounds of all eight specs.
#: More than the service keeps finished jobs for (256), so its memory has
#: reached its plateau, and far more than a p90 needs.
SERVICE_WARM_MIN = 256


def spec_name(spec: Dict[str, str]) -> str:
    return f"{spec['design']}-{spec['effort']}-{spec['fault_model']}"


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0-100)."""
    if not values:
        return 0.0
    return sorted(values)[_rank(p, len(values)) - 1]


def tail_percentile(values: Sequence[float],
                    ladder: Sequence[float] = (50, 90, 99, 99.9)
                    ) -> Tuple[Optional[float], Optional[float]]:
    """The highest percentile of ``ladder`` with at least ten samples
    beyond it, as ``(p, value)``; ``(None, None)`` below 20 samples."""
    best = None
    for p in ladder:
        if len(values) - _rank(p, len(values)) >= 10:
            best = p
    if best is None:
        return None, None
    return best, percentile(values, best)


# --------------------------------------------------------------------- #
# seeded inputs
# --------------------------------------------------------------------- #
def atpg_quotas(counts: Dict[str, int],
                size: int = ATPG_SAMPLE) -> Dict[str, int]:
    """Faults per reference verdict: the verdict's share of the universe
    (``counts``: faults per verdict), rounded by largest remainder so the
    quotas sum to ``size``."""
    total = sum(counts.values())
    exact = {c: size * n / total for c, n in counts.items()}
    quotas = {c: int(share) for c, share in exact.items()}
    by_remainder = sorted(exact, key=lambda c: (quotas[c] - exact[c], c))
    for fault_class in by_remainder[:size - sum(quotas.values())]:
        quotas[fault_class] += 1
    return quotas


def atpg_strata(reference: Dict[str, Any]) -> Dict[str, List[int]]:
    """Universe indices per reference verdict."""
    strata: Dict[str, List[int]] = {}
    for index, fault_class in enumerate(reference["classes"].split()):
        strata.setdefault(fault_class, []).append(index)
    return strata


def atpg_sample(seed: int, iteration: int,
                strata: Dict[str, List[int]]) -> List[int]:
    """Universe indices of the ``atpg_full_tiny`` sample of one iteration:
    a uniform draw within each reference verdict, sized by
    :func:`atpg_quotas`."""
    rng = random.Random(f"atpg:{seed}:{iteration}")
    quotas = atpg_quotas({c: len(s) for c, s in strata.items()})
    picks: List[int] = []
    for fault_class, quota in sorted(quotas.items()):
        picks += rng.sample(strata[fault_class], quota)
    rng.shuffle(picks)
    return picks


def service_plan(seed: int) -> Dict[str, List[int]]:
    """Spec indices of the cold and store-read phases, in request order."""
    rng = random.Random(f"service:{seed}")
    cold = list(range(len(SERVICE_SPECS)))
    store = list(cold)
    rng.shuffle(cold)
    rng.shuffle(store)
    return {"cold": cold, "store": store}


def service_warm_round(seed: int, index: int) -> List[int]:
    """The ``index``-th memory-warm round: every spec once, seeded order."""
    order = list(range(len(SERVICE_SPECS)))
    random.Random(f"service:{seed}:warm:{index}").shuffle(order)
    return order


# --------------------------------------------------------------------- #
# references and output checks
# --------------------------------------------------------------------- #
def load_json(path: Path) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def digest(items: Iterable[str]) -> str:
    """Order-independent sha256 of a set of strings."""
    return hashlib.sha256("\n".join(sorted(items)).encode()).hexdigest()


def universe_digest(names: Iterable[str]) -> str:
    """Order-dependent sha256 of a fault universe (indices depend on it)."""
    return hashlib.sha256("\n".join(names).encode()).hexdigest()


def check_text(output: str, reference: str) -> bool:
    """Rendered tables must match byte for byte."""
    return output == reference


def check_sbst(result: Dict[str, Any], reference: Dict[str, Any]) -> bool:
    """Coverage counts and detected-set digest against a shipped seed."""
    return all(result.get(key) == reference[key] for key in reference)


_DETECTED = {"DT", "PT"}
_UNTESTABLE = {"UU", "UT", "UB", "UO"}


def _family(fault_class: str) -> str:
    if fault_class in _DETECTED:
        return "detected"
    if fault_class in _UNTESTABLE:
        return "untestable"
    return fault_class


def verdict_flips(classes: Dict[int, str],
                  reference: Dict[str, Any]) -> List[int]:
    """Sampled faults whose verdict crossed detected <-> untestable (or
    went missing) against the reference.  Moves into or out of AU are
    not flips: they show in ``aborted_ratio`` instead."""
    flips = []
    ref_classes = reference["classes"].split()
    for index, fault_class in classes.items():
        ref = ref_classes[index]
        if "AU" in (ref, fault_class):
            continue
        if _family(ref) != _family(fault_class):
            flips.append(index)
    return flips
