"""Pinned PODEM search results on seeded samples of the tiny core.

``tests/data/podem_tiny_pinned.json`` holds, per searched fault, the full
outcome of a search at backtrack limit 24: verdict, capture pattern and
launch pattern (in assignment order), backtrack and decision counts and the
learned-implication skips it took.  The test replays every search and
requires each field to match exactly, so a change to how the search
evaluates its machines cannot move a decision.

Sections:

* ``stuck_at`` / ``transition`` — seeded samples of tiny's fault
  universes (stuck-at stratified by the recorded FULL-effort verdict of
  ``perfbench/refs/atpg_tiny.json``), each searched with static learning
  off and on;
* ``tied`` — stem faults on the nets a debug-control manipulation ties,
  with the stuck value opposing the tie (the fault site is a D from the
  start), and transition faults on the same nets;
* ``dalg`` — reference-AU faults through the ``dalg`` backend (PODEM,
  then the D-algorithm escalation).

Re-record (only when a change is *meant* to move search results)::

    PYTHONPATH=src python -m tests.test_podem_pinned
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from repro.atpg.podem import Podem, PodemResult, PodemStatus
from repro.atpg.portfolio import resolve_atpg_backend
from repro.faults.faultlist import generate_fault_list
from repro.manipulation.tie import tie_port
from repro.netlist.module import Netlist
from repro.soc.config import SoCConfig
from repro.soc.soc_builder import build_soc

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "data" / "podem_tiny_pinned.json"
REFERENCE = ROOT / "perfbench" / "refs" / "atpg_tiny.json"

BACKTRACK_LIMIT = 24
#: Reference-verdict quotas of the stuck-at sample (60 faults).
STUCK_AT_QUOTAS = {"DT": 24, "UU": 12, "AU": 12, "UT": 6, "UB": 4, "UO": 2}
TRANSITION_SAMPLE = 40
DALG_SAMPLE = 8


def build_netlists() -> Dict[str, Netlist]:
    """``tiny`` and ``tiny_debug_tied`` (every debug control input tied to
    its mission constant, as the debug-control analysis does)."""
    soc = build_soc(SoCConfig.tiny())
    tied = soc.cpu.clone(f"{soc.cpu.name}_debug_tied")
    for port, value in sorted(soc.debug_interface.control_inputs.items()):
        tie_port(tied, port, value, reason="mission constant")
    return {"tiny": soc.cpu, "tiny_debug_tied": tied}


def _universe(netlist: Netlist, model: str) -> list:
    return generate_fault_list(netlist, model=model).faults()


def _static(netlist: Netlist, on: bool):
    if not on:
        return None
    from repro.analysis import get_static_analysis

    return get_static_analysis(netlist)


def _outcome(result: Optional[PodemResult]) -> Optional[dict]:
    if result is None:
        return None
    return {"status": result.status.value,
            "pattern": [[k, v] for k, v in result.pattern.items()],
            "init_pattern": [[k, v] for k, v in result.init_pattern.items()],
            "backtracks": result.backtracks,
            "decisions": result.decisions}


# --------------------------------------------------------------------- #
# sample selection (recording only)
# --------------------------------------------------------------------- #
def _select(netlists: Dict[str, Netlist]) -> List[dict]:
    """The searches to pin: one dict per (section, fault, static) run."""
    tiny = netlists["tiny"]
    classes = json.loads(REFERENCE.read_text())["classes"].split()
    strata: Dict[str, List[int]] = {}
    for index, fault_class in enumerate(classes):
        strata.setdefault(fault_class, []).append(index)
    rng = random.Random("podem-pinned")

    stuck_at = []
    for fault_class, quota in sorted(STUCK_AT_QUOTAS.items()):
        stuck_at += rng.sample(strata[fault_class], quota)
    transition = rng.sample(range(len(_universe(tiny, "transition"))),
                            TRANSITION_SAMPLE)
    reference_au = rng.sample(strata["AU"], DALG_SAMPLE)

    # Stem faults on tied nets, stuck at the value opposing the tie.
    tied_netlist = netlists["tiny_debug_tied"]
    probe = Podem(tied_netlist)
    tied_ids = []
    tied_sites = set()
    for index, fault in enumerate(_universe(tied_netlist, "stuck_at")):
        stem, _, _ = probe.view.fault_refs(fault)
        if stem is None:
            continue
        tie = probe.compiled.tied[stem]
        if tie is not None and tie != fault.value:
            tied_ids.append(index)
            tied_sites.add(fault.site)
    tied_transition = [
        index for index, fault in
        enumerate(_universe(tied_netlist, "transition"))
        if fault.site in tied_sites]

    runs = []
    for static in (False, True):
        runs += [dict(section="stuck_at", netlist="tiny", model="stuck_at",
                      index=i, static=static) for i in stuck_at]
        runs += [dict(section="transition", netlist="tiny",
                      model="transition", index=i, static=static)
                 for i in transition]
        runs += [dict(section="tied", netlist="tiny_debug_tied",
                      model="stuck_at", index=i, static=static)
                 for i in tied_ids]
        runs += [dict(section="tied", netlist="tiny_debug_tied",
                      model="transition", index=i, static=static)
                 for i in tied_transition[:4]]
    runs += [dict(section="dalg", netlist="tiny", model="stuck_at", index=i,
                  static=True) for i in reference_au]
    return runs


# --------------------------------------------------------------------- #
# replay
# --------------------------------------------------------------------- #
_BACKENDS = {"stuck_at": "podem", "transition": "podem", "tied": "podem",
             "dalg": "dalg"}


def run_searches(runs: List[dict], netlists: Dict[str, Netlist]
                 ) -> List[dict]:
    """Search every run's fault; one generator per (section, netlist,
    model, static) group, in run order, as a classification would."""
    universes: Dict[tuple, list] = {}
    generators: Dict[tuple, object] = {}
    records = []
    for run in runs:
        key = (run["netlist"], run["model"])
        if key not in universes:
            universes[key] = _universe(netlists[run["netlist"]], run["model"])
        fault = universes[key][run["index"]]
        group = (run["section"],) + key + (run["static"],)
        generator = generators.get(group)
        if generator is None:
            netlist = netlists[run["netlist"]]
            generator = resolve_atpg_backend(_BACKENDS[run["section"]]).start(
                netlist, backtrack_limit=BACKTRACK_LIMIT,
                static=_static(netlist, run["static"]))
            generators[group] = generator
        skips = generator.learned_skips
        result = generator.generate(fault)
        escalated = None
        if (run["section"] == "dalg"
                and result.status is PodemStatus.ABORTED):
            escalated = generator.escalate(fault)
        record = dict(run, fault=str(fault), **_outcome(result),
                      learned_skips=generator.learned_skips - skips)
        if run["section"] == "dalg":
            record["escalated"] = _outcome(escalated)
        records.append(record)
    return records


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.fixture(scope="module")
def netlists():
    return build_netlists()


def test_pinned_sample_covers_the_injection_cases(pinned, netlists):
    """The sample holds a tied stem opposing its stuck value, a branch
    fault, and searches that detect, prove and abort."""
    probe = Podem(netlists["tiny"])
    universe = _universe(netlists["tiny"], "stuck_at")
    records = pinned["records"]
    assert any(r["section"] == "tied" and r["model"] == "stuck_at"
               for r in records)
    assert any(probe.view.fault_refs(universe[r["index"]])[1] >= 0
               for r in records if r["section"] == "stuck_at")
    statuses = {r["status"] for r in records}
    assert statuses == {"detected", "untestable", "aborted"}
    assert any(r["init_pattern"] for r in records)
    assert any(r["learned_skips"] for r in records)


def test_search_results_match_pinned(pinned, netlists):
    runs = [{k: r[k] for k in ("section", "netlist", "model", "index",
                               "static")} for r in pinned["records"]]
    replayed = run_searches(runs, netlists)
    assert len(replayed) == len(pinned["records"])
    for got, want in zip(replayed, pinned["records"]):
        assert got == want, want["fault"]


if __name__ == "__main__":
    nets = build_netlists()
    records = run_searches(_select(nets), nets)
    lines = ",\n".join(json.dumps(record, sort_keys=True) for record in records)
    PINNED.write_text('{"backtrack_limit": %d, "records": [\n%s\n]}\n'
                      % (BACKTRACK_LIMIT, lines))
    print(f"wrote {len(records)} records to {PINNED}")
