#!/usr/bin/env python3
"""Quickstart: identify on-line functionally untestable faults in a generated core.

Creates a :class:`repro.Session` — the stateful front door that owns the
artifact cache and the run defaults — wraps the "small" synthetic
processor core (register file, ALU, AGU, BTB, debug logic, full scan) in a
:class:`repro.Design`, and runs the complete identification flow from the
paper (scan -> debug control -> debug observation -> memory map).  Prints
the Table-I style summary plus a few example faults per source, then shows
the session cache replaying the whole flow on a second call.

Run with:  python examples/quickstart.py
"""

import repro
from repro.core.report import render_source_details


def main() -> None:
    # A Session bundles the artifact cache and the default pass selection
    # and run options (ATPG effort, ...).  Session(options=RunOptions(
    # jobs=2)) would run the fault populations on two warm pool workers —
    # jobs is the only concurrency knob.
    session = repro.Session()

    # Targets coerce automatically: a preset name, a SoCConfig, a built
    # SoC, a bare Netlist, or an explicit Design all work.
    design = session.design("small")

    stats = design.stats()
    print(f"Generated core '{design.name}' "
          f"(signature {design.signature[:12]}...):")
    print(f"  {stats['instances']:,} cells "
          f"({stats['sequential']:,} flip-flops, {stats['combinational']:,} gates), "
          f"{stats['scan_chains']} scan chains")
    print(f"  memory map: {design.memory_map}")
    print()

    report = session.analyze(design)

    print(report.to_table())
    print()
    print(render_source_details(report, max_faults_per_source=5))

    fraction = report.total_online_untestable / report.total_faults
    print()
    print(f"=> {report.total_online_untestable:,} of {report.total_faults:,} "
          f"stuck-at faults ({fraction:.1%}) can never be detected by an "
          f"on-line functional test and should be pruned from the fault list.")

    # The session memoises every step result under the design's content
    # signature: analyzing the same design again replays from cache.
    session.analyze(design)
    print()
    print(f"session cache after a repeat analysis: {session.cache_stats}")
    print("(see examples/scenario_sweep.py for batch sweeps over SoC "
          "variants)")


if __name__ == "__main__":
    main()
