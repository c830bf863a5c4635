"""Compare two sets of benchmark captures, metric by metric.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are capture files written by ``run.py`` (under
``perfbench/out/``) or directories of them, e.g. ten seeds of the parent
commit against ten seeds of a change.  For every workload and metric the
report gives each side's median and quartiles and the change of the
medians.  Captures taken with different core counts are flagged: their
numbers are not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List


def load(path: Path) -> List[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    captures = []
    for file in files:
        data = json.loads(file.read_text())
        if "attribution" in data and "metrics" in data:
            captures.append(data)
    return captures


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    sides = {"base": load(args.base), "new": load(args.new)}
    for name, captures in sides.items():
        if not captures:
            print(f"error: no captures in {getattr(args, name)}",
                  file=sys.stderr)
            return 2

    cores = {c["attribution"]["cpu_count"]
             for captures in sides.values() for c in captures}
    if len(cores) > 1:
        print(f"WARNING: captures come from machines with different core "
              f"counts {sorted(cores)}; the comparison is not valid")

    grouped: Dict[tuple, Dict[str, Dict[str, List[float]]]] = {}
    for side, captures in sides.items():
        for capture in captures:
            key = (capture["workload"], capture["attribution"]["trace"])
            for metric, entry in capture["metrics"].items():
                grouped.setdefault(key, {}).setdefault(
                    metric, {"base": [], "new": []})[side].append(
                        entry["value"])

    print(f"{'workload':<20} {'metric':<28} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'change':>8}")
    for (workload, _), metrics in sorted(grouped.items()):
        for metric, values in metrics.items():
            if not values["base"] or not values["new"]:
                continue
            b1, b2, b3 = quartiles(values["base"])
            n1, n2, n3 = quartiles(values["new"])
            change = f"{(n2 - b2) / b2:+.1%}" if b2 else "n/a"
            print(f"{workload:<20} {metric:<28} "
                  f"{f'{b2:.4g} [{b1:.4g}, {b3:.4g}]':>32} "
                  f"{f'{n2:.4g} [{n1:.4g}, {n3:.4g}]':>32} {change:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
