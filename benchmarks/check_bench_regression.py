#!/usr/bin/env python3
"""Fail CI when a benchmark stage regresses against the committed baseline.

Usage::

    python benchmarks/check_bench_regression.py BENCH_latest.json \\
        benchmarks/BENCH_baseline_small.json \\
        --stages fault_sim_compiled,full_flow --max-ratio 2.5

Compares the per-stage wall clock recorded by ``benchmarks/test_runtime.py``
(``REPRO_BENCH_OUT``) with a committed baseline capture of the same SoC
configuration and exits non-zero when any watched stage is slower than
``max_ratio`` times its baseline.  The generous default ratio absorbs CI
machine noise while still catching order-of-magnitude regressions of the
compiled hot paths.

Refreshing the baseline intentionally::

    REPRO_BENCH_CONFIG=small \\
        REPRO_BENCH_OUT=benchmarks/BENCH_baseline_small.json \\
        python -m pytest benchmarks/test_runtime.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_stages(path: Path) -> dict:
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot load benchmark file {path}: {exc}")
    stages = document.get("stages")
    if not isinstance(stages, dict):
        raise SystemExit(f"error: {path} has no 'stages' object")
    return {"config": document.get("config"), "stages": stages}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path,
                        help="freshly recorded BENCH_latest.json")
    parser.add_argument("baseline", type=Path,
                        help="committed baseline capture to compare against")
    parser.add_argument(
        "--stages", default="fault_sim_compiled,full_flow",
        metavar="NAME[,NAME...]",
        help="comma-separated stage names to gate on "
             "(default: fault_sim_compiled,full_flow)")
    parser.add_argument(
        "--max-ratio", type=float, default=2.5, metavar="R",
        help="fail when current/baseline wall clock exceeds R (default 2.5)")
    args = parser.parse_args(argv)

    current = load_stages(args.current)
    baseline = load_stages(args.baseline)
    if current["config"] != baseline["config"]:
        print(f"error: config mismatch — current ran {current['config']!r}, "
              f"baseline is {baseline['config']!r}", file=sys.stderr)
        return 2

    watched = [name.strip() for name in args.stages.split(",") if name.strip()]
    failures = []
    print(f"{'stage':<24} {'baseline':>10} {'current':>10} {'ratio':>7}")
    for name in watched:
        base_entry = baseline["stages"].get(name)
        cur_entry = current["stages"].get(name)
        if cur_entry is None:
            # Absent from the fresh run: a typo'd --stages name or a stage
            # that stopped recording — both must fail loudly, whether or
            # not the baseline still carries it.
            print(f"error: stage {name!r} missing from {args.current}",
                  file=sys.stderr)
            return 2
        if base_entry is None:
            # A watched stage the baseline lacks would pass unchecked:
            # record it in the baseline first.
            print(f"error: stage {name!r} missing from {args.baseline}",
                  file=sys.stderr)
            return 2
        base_seconds = float(base_entry["seconds"])
        cur_seconds = float(cur_entry["seconds"])
        # Sub-millisecond baselines are pure noise; clamp the denominator.
        ratio = cur_seconds / max(base_seconds, 1e-3)
        verdict = "ok" if ratio <= args.max_ratio else "REGRESSION"
        print(f"{name:<24} {base_seconds:>9.3f}s {cur_seconds:>9.3f}s "
              f"{ratio:>6.2f}x  {verdict}")
        if ratio > args.max_ratio:
            failures.append(name)

    if failures:
        print(f"benchmark regression (> {args.max_ratio}x baseline): "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"all watched stages within {args.max_ratio}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
