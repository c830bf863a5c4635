"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

``--trace 0`` prints every end-to-end metric of BENCHMARK.json; ``--trace
1`` is a separate traced run that prints every per-layer metric, the
per-layer self-time table and writes a Chrome trace.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any output check
failed and 2 when the checkout has no ``src/repro`` to benchmark.  See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: The end-to-end metrics, in print order.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def attribution(args, raw: Dict[str, Any]) -> Dict[str, Any]:
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": _numpy_version(),
            "kernel": raw.get("kernel", {}).get("kernel"),
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": _git_commit(),
            "iterations": len(raw["wall"]),
            "traced_iterations": len(raw["traced"])}


def end_to_end(raw: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    values = {"wall_s": common.median(raw["wall"]),
              "setup_s": common.median(raw["setup"]),
              "peak_rss_mb": raw["peak_rss_mb"]}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(raw: Dict[str, Any], tracer) -> Dict[str, Dict[str, Any]]:
    import spans

    extra = {name: raw["extra"].get(name, 0.0)
             for name in ("aborted_ratio", "req_cold_p50_ms",
                          "req_store_p50_ms", "req_warm_p50_ms",
                          "req_warm_p90_ms")}
    extra["error_ratio"] = raw["failed"] / max(1, raw["attempted"])
    extra["trace.overhead_s"] = (common.median(raw["traced"])
                                 - common.median(raw["wall"]))
    return spans.layer_metrics(tracer, raw["traced_phases"], extra)


def _print_layers(tracer, raw: Dict[str, Any]) -> None:
    import spans

    for title, phases in (("set-up", ["setup"]),
                          ("per traced iteration", raw["traced_phases"])):
        rows = spans.layer_table(tracer, phases)
        if not rows:
            continue
        print(f"{'layer span (' + title + ')':<34} {'calls':>9} "
              f"{'self s':>10} {'total s':>10}")
        for name, calls, own, total in rows:
            print(f"{name:<34} {calls:>9.1f} {own:>10.4f} {total:>10.4f}")


def run_one(args) -> int:
    import spans
    import workloads

    tracer = spans.Tracer(args.workload) if args.trace else None
    raw = workloads.RUNNERS[args.workload](args.seed, args.seconds, tracer)
    info = attribution(args, raw)
    metrics = per_layer(raw, tracer) if tracer else end_to_end(raw)
    correct = raw["failed"] == 0

    common.OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    capture = common.OUT / f"{stem}.json"
    capture.write_text(json.dumps({
        "workload": args.workload, "attribution": info, "metrics": metrics,
        "extra": raw["extra"], "wall_samples": raw["wall"],
        "traced_samples": raw["traced"], "setup_samples": raw["setup"],
        "attempted": raw["attempted"], "failed": raw["failed"]},
        indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          + "  ".join(f"{k}={v}" for k, v in info.items()
                      if k not in ("seed",)))
    if tracer:
        _print_layers(tracer, raw)
        trace_file = common.OUT / f"trace-{stem}.json"
        trace_file.write_text(json.dumps(spans.chrome_trace(tracer)))
        print(f"chrome trace: {trace_file.relative_to(common.ROOT)}")
    for name, metric in metrics.items():
        print(f"{name:<32} {metric['value']:>14.6g} {metric['unit']}")
    if not tracer:
        for name, value in raw["extra"].items():
            print(f"  {name:<30} {value}")
        print(f"  {'error_ratio':<30} "
              f"{raw['failed'] / max(1, raw['attempted'])}")
    print(f"capture: {capture.relative_to(common.ROOT)}")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; a summary line per workload."""
    status = 0
    summary = {}
    for workload in common.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=str(common.ROOT))
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            summary[workload] = {"correct": False, "exit": proc.returncode}
            continue
        summary[workload] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Seeded end-to-end and per-layer benchmark of repro.")
    parser.add_argument("--workload", choices=common.WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per run (at least one "
                             "iteration)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=common.WORKLOADS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {common.SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(1, str(common.SRC))
    if args.child:
        import workloads

        return workloads.child_main(args.child, args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
