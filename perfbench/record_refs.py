"""Record the references the benchmark's output checks compare against.

    python3 perfbench/record_refs.py [--only sbst,atpg,service]

Run it only at a commit whose outputs are known good; every later run of
``perfbench/run.py`` is checked against what it writes.  References use
the serial reference paths (serial grading, one fresh session per
design), never the paths the workloads time.  The ``atpg`` part classifies
the whole ``tiny`` stuck-at universe at FULL effort one fault at a time
and takes several minutes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

sys.path.insert(0, str(common.SRC))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path.relative_to(common.ROOT)}", flush=True)


def record_sbst() -> None:
    from repro.api import RunOptions, Session
    from repro.faults.faultlist import generate_fault_list
    from repro.sbst import FaultGrader, ToggleMonitor, generate_sbst_suite

    session = Session()
    design = session.design("date13")
    olfu = session.analyze(design,
                           options=RunOptions(effort="tie")).online_untestable
    faults = generate_fault_list(design.netlist).faults()
    grader = FaultGrader(design.netlist)
    refs = {}
    for seed in common.SHIPPED_SEEDS:
        suite = generate_sbst_suite(design.config.cpu, seed=seed)
        patterns = ToggleMonitor(design.netlist).run_suite(suite)
        detected = grader.grade(patterns, faults)
        after = detected - olfu
        refs[str(seed)] = {
            "total_faults": len(faults), "detected": len(detected),
            "pruned": len(olfu & set(faults)),
            "detected_after_pruning": len(after),
            "coverage_before": len(detected) / len(faults),
            "coverage_after": len(after) / (len(faults) - len(olfu)),
            "detected_sha256": common.digest(str(f) for f in detected),
        }
    _write(common.REFS / "sbst_date13.json",
           json.dumps(refs, indent=1, sort_keys=True) + "\n")


def record_atpg() -> None:
    from repro.analysis import get_static_analysis
    from repro.api import Session
    from repro.atpg import (AtpgEffort, PodemStatus,
                            StructuralUntestabilityEngine,
                            resolve_atpg_backend)
    from repro.faults.faultlist import generate_fault_list

    netlist = Session().design("tiny").netlist
    faults = generate_fault_list(netlist).faults()
    quick = StructuralUntestabilityEngine(
        netlist, effort=AtpgEffort.RANDOM).classify(faults).classifications
    static = get_static_analysis(netlist)
    run = resolve_atpg_backend(None).start(netlist, backtrack_limit=200,
                                           static=static, seed=2013)
    names = {PodemStatus.DETECTED: "DT", PodemStatus.UNTESTABLE: "UU"}
    classes = []
    for fault in faults:
        if fault in quick:
            classes.append(quick[fault].value)
        elif static.prove(fault) is not None:
            classes.append("UU")
        else:
            classes.append(names.get(run.generate(fault).status, "AU"))
    _write(common.REFS / "atpg_tiny.json", json.dumps({
        "universe_sha256": common.universe_digest(str(f) for f in faults),
        "classes": " ".join(classes),
    }) + "\n")


def record_service() -> None:
    from repro.api import RunOptions, Session

    for spec in common.SERVICE_SPECS:
        report = Session().analyze(spec["design"], options=RunOptions(
            effort=spec["effort"], fault_model=spec["fault_model"]))
        _write(common.REFS / "service" / f"{common.spec_name(spec)}.txt",
               report.to_table())


PARTS = {"sbst": record_sbst, "atpg": record_atpg, "service": record_service}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default=",".join(PARTS),
                        help="comma-separated parts to record")
    args = parser.parse_args()
    for part in args.only.split(","):
        PARTS[part.strip()]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
