#!/usr/bin/env python3
"""Sweep the fault model against the core size: stuck-at vs transition-delay.

The paper's methodology is defined over fault *classes*, and the package's
fault model is a first-class axis (:mod:`repro.faults.models`):
``stuck_at`` is the classic single stuck-at universe Table I is built on,
``transition`` the launch-on-capture transition-delay model (slow-to-rise /
slow-to-fall, two-pattern detection).  This example expands the cartesian
``fault_model × size`` grid and compares the on-line functionally
untestable populations:

* a site held constant in mission mode hides *one* stuck-at fault but
  *both* transition polarities (a held net never toggles), so the
  scan-enable and debug-control sources grow under the transition model;
* the structural baseline grows too — every functionally-constant net
  contributes two unexcitable transition faults.

Scenarios that share a netlist (here: the two models of each size) reuse
the compiled IR through the global compile cache; per-pass artifacts are
keyed on the fault model, so classifications never leak across models.
``--jobs 2`` (``RunOptions(jobs=2)``) would run the four scenarios one per
task on two warm pool workers instead, with identical rows.

The identical sweep runs from the command line::

    python -m repro sweep --base tiny --axis size=tiny,small \\
        --axis fault_model=stuck_at,transition --out models.json
    python -m repro report models.json

Run with:  python examples/fault_model_sweep.py
"""

import repro


def main() -> None:
    session = repro.Session()

    grid = (repro.ScenarioGrid("tiny")
            .axis("size", ["tiny", "small"])
            .axis("fault_model", ["stuck_at", "transition"]))
    print(f"expanding {grid!r}")
    print()

    report = session.sweep(grid)
    print(report.to_table())
    print()

    # Per-model Table I: the rendered title names the fault model.
    for result in report:
        print(result.report.to_table())
        print()

    by_model = {}
    for result in report:
        by_model.setdefault(result.report.fault_model, []).append(result)
    for model, results in by_model.items():
        untestable = sum(r.report.total_online_untestable for r in results)
        print(f"{model:>10}: {untestable:,} on-line untestable faults "
              f"across {len(results)} sizes")


if __name__ == "__main__":
    main()
