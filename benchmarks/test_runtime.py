"""Experiment ``runtime`` — analysis cost (§4) and the compiled-IR speedup.

The paper stresses that, once the circuit has been manipulated, the
structural analysis is essentially free: "the modified circuit is analyzed by
Tetramax in less than 1 second", while the engineering effort lives in the
identification of the untestability sources.  This benchmark measures the
same quantities for the pure-Python engine on the synthetic core:

* the tied-value classification of the manipulated (debug-tied) circuit,
* the complete four-source identification flow,
* the scan-chain tracing step alone,
* the compiled integer-ID fault simulator against the legacy object-graph
  reference, with verdict equality enforced,
* since PR 4 — full-fault grading at ``jobs=4`` on the worker pool
  (one task per cone-affine chunk) against the serial grader, with
  detected-set equality enforced,
* since the portfolio PR — serial reference PODEM against the
  ``dalg`` backend fanned over pool workers at ``--jobs 4`` on a
  cone-bounded fault sample (``atpg_portfolio``), with verdict agreement
  outside the abort boundary enforced,
* since the runtime PR — cold-spawn vs warm-pool round-trip latency of
  the worker runtime (``pool_warm_grading``), with detected sets pinned
  identical and the warm setup path pinned >= 10x under the cold
  spin-up.
* the FULL-effort detection phases with the static layer's learning on
  and off (``static_learning``), with verdict agreement outside the abort
  boundary enforced.
* the start of one PODEM search on tiny (``podem_search_start``): engine
  construction plus one live-machine start, as a median with quartiles
  over repeats, beside the one-off cost of the view it reuses.
* the serial word kernel on one full-population SBST grade
  (``word_grade_kernel``), as a median with quartiles over repeats,
  beside the number of distinct injections it simulates.

Parallel ``*_speedup`` summary fields are attributed with the machine's
``cpus`` and recorded only when ``os.cpu_count() >= jobs`` — a jobs=4
speedup measured on one core is noise, not a regression signal.

Every stage's wall clock is recorded into the file ``REPRO_BENCH_OUT``
names (CI uses ``BENCH_latest.json``, a PR-agnostic name; nothing is
written when it is unset) so CI can diff it against the committed baseline
(``benchmarks/BENCH_baseline_small.json``) with
``benchmarks/check_bench_regression.py`` and fail on a stage regression.

The Table I regression pin: on the date13 configuration the flow's rendered
summary table must be byte-identical to the golden capture taken from the
pre-compiled-IR implementation (``golden_table1_date13.txt``).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from pathlib import Path

import pytest

from repro.atpg.engine import StructuralUntestabilityEngine
from repro.api import Session
from repro.core.scan_analysis import identify_scan_untestable
from repro.faults.faultlist import generate_fault_list
from repro.manipulation.tie import tie_port
from repro.netlist.cells import LOGIC_0, LOGIC_1
from repro.sbst.grading import FaultGrader
from repro.sbst.monitor import ToggleMonitor
from repro.sbst.program_gen import generate_sbst_suite
from repro.simulation.fault_sim import FaultSimulator
from tests.legacy_sim import LegacyCombinationalSimulator, LegacyFaultSimulator

_GOLDEN_TABLE1 = Path(__file__).with_name("golden_table1_date13.txt")

#: Config preset under test — must match the conftest fixture's selection.
RUNTIME_BENCH_CONFIG = os.environ.get("REPRO_BENCH_CONFIG", "date13")

#: Wall-clock per stage, flushed to ``REPRO_BENCH_OUT`` when the module finishes.
_BENCH: dict = {"config": RUNTIME_BENCH_CONFIG, "stages": {}}


def _record(stage: str, seconds: float, **extra) -> None:
    entry = {"seconds": round(seconds, 4)}
    entry.update(extra)
    _BENCH["stages"][stage] = entry


def _record_parallel_speedup(field: str, serial_seconds: float,
                             parallel_seconds: float, jobs: int) -> None:
    """Record a parallel-stage speedup, attributed to the machine it ran on.

    A ``jobs=N`` speedup measured on fewer than N cores is noise that reads
    like a regression (or a miracle) when captures from different machines
    are compared, so the ratio is recorded only when the cores exist — the
    attribution (``cpus``, ``jobs``) always is.
    """
    cpus = os.cpu_count() or 1
    entry: dict = {"cpus": cpus, "jobs": jobs}
    if cpus >= jobs:
        entry["speedup"] = (round(serial_seconds / parallel_seconds, 2)
                            if parallel_seconds else float("inf"))
    else:
        entry["skipped"] = (f"os.cpu_count()={cpus} < jobs={jobs}; "
                            "an oversubscribed speedup is not comparable")
    _BENCH[field] = entry


@pytest.fixture(scope="module", autouse=True)
def _write_bench_json():
    yield
    # Recording is opt-in: a plain test run must not rewrite a tracked file.
    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        Path(out).write_text(json.dumps(_BENCH, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")


def _debug_tied(soc):
    manipulated = soc.cpu.clone("debug_tied")
    for port, value in soc.debug_interface.control_inputs.items():
        tie_port(manipulated, port, value)
    return manipulated


def test_runtime_engine_on_manipulated_circuit(runtime_soc, benchmark):
    """Classification time of the debug-tied circuit (the paper's < 1 s step)."""
    manipulated = _debug_tied(runtime_soc)
    faults = generate_fault_list(manipulated).faults()

    def classify():
        return StructuralUntestabilityEngine(manipulated).classify(faults)

    report = benchmark.pedantic(classify, rounds=3, iterations=1, warmup_rounds=0)
    print()
    print(f"Engine classification of {len(faults):,} faults on the manipulated "
          f"circuit: {report.runtime_seconds:.2f}s, "
          f"{len(report.untestable):,} untestable")
    _record("tie_classification", report.runtime_seconds,
            faults=len(faults), untestable=len(report.untestable))
    assert report.runtime_seconds < 60.0
    assert report.untestable


def test_runtime_full_flow(runtime_soc, benchmark):
    report = benchmark.pedantic(lambda: Session().analyze(runtime_soc),
                                rounds=3, iterations=1, warmup_rounds=0)
    total = sum(report.runtimes.values())
    print()
    print(f"Per-phase runtime of the full flow ({RUNTIME_BENCH_CONFIG} core):")
    for phase, seconds in report.runtimes.items():
        print(f"  {phase:16s} {seconds:7.2f}s")
    print(f"  {'total':16s} {total:7.2f}s")
    _record("full_flow", total, phases={
        phase: round(seconds, 4) for phase, seconds in report.runtimes.items()})
    assert total < 120.0


def test_runtime_table1_byte_identical(runtime_soc):
    """The compiled execution layer must not move Table I by a single byte
    relative to the legacy implementation's golden capture."""
    if RUNTIME_BENCH_CONFIG != "date13":
        pytest.skip("golden Table I is captured for the date13 configuration")
    report = Session().analyze(runtime_soc)
    golden = _GOLDEN_TABLE1.read_text(encoding="utf-8").rstrip("\n")
    rendered = report.to_table()
    _BENCH["table1_byte_identical"] = rendered == golden
    assert rendered == golden


def test_runtime_fault_sim_compiled_vs_legacy(runtime_soc):
    """The compiled fault simulator must beat the legacy object-graph walk
    while producing exactly the same verdicts."""
    manipulated = _debug_tied(runtime_soc)
    all_faults = generate_fault_list(manipulated).faults()
    # Deterministic fault sample + random mission patterns: enough work for
    # a stable timing comparison, small enough for the tier-1 budget.  The
    # legacy object-graph walk is the slow side (~70ms/fault on date13), so
    # the sample is kept deliberately small — 40 faults already give a
    # timing gap far beyond the 0.8x assertion margin.
    step = max(1, len(all_faults) // 40)
    faults = all_faults[::step][:40]
    rng = random.Random(2013)
    controllable = [p for p in manipulated.input_ports()
                    if manipulated.net(p).tied is None]
    sim = FaultSimulator(manipulated)
    controllable += LegacyCombinationalSimulator(manipulated).state_nets
    patterns = [
        {net: (LOGIC_1 if rng.getrandbits(1) else LOGIC_0)
         for net in controllable}
        for _ in range(10)
    ]

    legacy = LegacyFaultSimulator(manipulated)
    start = time.perf_counter()
    legacy_result = legacy.run(faults, patterns, drop_detected=True)
    legacy_seconds = time.perf_counter() - start

    start = time.perf_counter()
    compiled_result = sim.run(faults, patterns)
    compiled_seconds = time.perf_counter() - start

    assert compiled_result.detected == legacy_result.detected
    assert compiled_result.undetected == legacy_result.undetected
    assert compiled_result.detecting_pattern == legacy_result.detecting_pattern

    speedup = legacy_seconds / compiled_seconds if compiled_seconds else float("inf")
    print()
    print(f"Fault simulation of {len(faults)} faults x {len(patterns)} "
          f"patterns: legacy {legacy_seconds:.3f}s, "
          f"compiled {compiled_seconds:.3f}s ({speedup:.1f}x)")
    _record("fault_sim_legacy", legacy_seconds,
            faults=len(faults), patterns=len(patterns))
    _record("fault_sim_compiled", compiled_seconds,
            faults=len(faults), patterns=len(patterns))
    _BENCH["fault_sim_speedup"] = round(speedup, 2)
    # "Measurably faster": demand a comfortable margin so the assertion is
    # robust to CI noise (locally the gap is an order of magnitude).
    assert compiled_seconds < 0.8 * legacy_seconds


def test_runtime_transition_fault_sim(runtime_soc):
    """Transition-delay (two-pattern) fault simulation on the compiled
    engine: records the ``transition_fault_sim`` stage."""
    manipulated = _debug_tied(runtime_soc)
    all_faults = generate_fault_list(manipulated, model="transition").faults()
    step = max(1, len(all_faults) // 120)
    faults = all_faults[::step][:120]
    rng = random.Random(2013)
    controllable = [p for p in manipulated.input_ports()
                    if manipulated.net(p).tied is None]
    sim = FaultSimulator(manipulated)
    controllable += LegacyCombinationalSimulator(manipulated).state_nets
    patterns = [
        {net: (LOGIC_1 if rng.getrandbits(1) else LOGIC_0)
         for net in controllable}
        for _ in range(10)
    ]

    start = time.perf_counter()
    serial_result = sim.run(faults, patterns)
    serial_seconds = time.perf_counter() - start

    print()
    print(f"Transition fault simulation of {len(faults)} faults x "
          f"{len(patterns)} patterns: {serial_seconds:.3f}s, "
          f"{len(serial_result.detected)} detected")
    _record("transition_fault_sim", serial_seconds,
            faults=len(faults), patterns=len(patterns),
            detected=len(serial_result.detected))
    assert serial_result.detected or serial_result.undetected


def test_runtime_scan_tracing(runtime_soc, benchmark):
    result = benchmark(identify_scan_untestable, runtime_soc.cpu)
    _record("scan_tracing", benchmark.stats.stats.mean
            if benchmark.stats is not None else 0.0)
    assert result.counts()["cells"] == runtime_soc.scan.total_cells


def test_runtime_full_fault_grading_sharded(runtime_soc):
    """Full-population mission-mode fault grading, serial and pooled.

    Grades the complete stuck-at population against the captured SBST
    patterns serially and at ``jobs=4`` on the registry worker pool (one
    task per chunk, cold pool start included), with detected-set equality
    enforced, and records both wall clocks in the ``full_fault_grading``
    stage.

    The historical acceptance pin (sharded >= 2x serial) is gone on
    purpose: serial grading routes through the same event-driven cone
    walk the shards use, which made *serial* ~12x faster and left jobs=4
    with only process overhead to amortise on a small core.
    """
    programs = generate_sbst_suite(runtime_soc.config.cpu)
    patterns = ToggleMonitor(runtime_soc.cpu).run_suite(programs)
    faults = generate_fault_list(runtime_soc.cpu).faults()

    def graded(jobs: int):
        grader = FaultGrader(runtime_soc.cpu, jobs=jobs)
        start = time.perf_counter()
        detected = grader.grade(patterns, faults)
        return detected, time.perf_counter() - start

    serial_detected, serial_seconds = graded(1)
    sharded_detected, sharded_seconds = graded(4)
    assert sharded_detected == serial_detected
    assert serial_detected  # a grading run that detects nothing is broken

    speedup = (serial_seconds / sharded_seconds
               if sharded_seconds else float("inf"))
    print()
    print(f"Full fault grading of {len(faults):,} faults x {len(patterns)} "
          f"patterns: serial {serial_seconds:.2f}s, "
          f"sharded --jobs 4 {sharded_seconds:.2f}s ({speedup:.1f}x)")
    from repro.simulation.sharded import resolve_jobs
    _record("full_fault_grading", sharded_seconds,
            serial_seconds=round(serial_seconds, 4), jobs=4,
            jobs_resolved=resolve_jobs(4), cpus=os.cpu_count() or 1,
            faults=len(faults), patterns=len(patterns),
            detected=len(sharded_detected))
    _record_parallel_speedup("full_fault_grading_speedup",
                             serial_seconds, sharded_seconds, 4)


def test_runtime_pool_warm_grading(runtime_soc):
    """Cold-spawn vs warm-pool round-trip latency of the persistent runtime.

    Grades the full stuck-at population three times: serial reference,
    then twice through one :class:`~repro.runtime.WorkerPool` — the
    first round pays worker spawn + netlist/job install (the cold path a
    fresh process pays once), the second finds everything warm and its
    setup cost collapses to a cache hit.  Detected sets must be
    identical across all three.

    Two pins: the warm-path setup overhead must land at least 10x under
    the cold spin-up on any machine (the tentpole's amortisation claim),
    and on a >= 4-core box the warm jobs=4 grade must beat serial.
    """
    from repro.runtime import WorkerPool
    from repro.simulation.sharded import resolve_jobs

    programs = generate_sbst_suite(runtime_soc.config.cpu)
    patterns = ToggleMonitor(runtime_soc.cpu).run_suite(programs)
    faults = generate_fault_list(runtime_soc.cpu).faults()
    cpus = os.cpu_count() or 1
    workers = resolve_jobs(4)

    serial_grader = FaultGrader(runtime_soc.cpu)
    start = time.perf_counter()
    serial_detected = serial_grader.grade(patterns, faults)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    pool = WorkerPool(workers)
    spawn_seconds = time.perf_counter() - start
    try:
        grader = FaultGrader(runtime_soc.cpu, jobs=workers, pool=pool)

        start = time.perf_counter()
        cold_detected = grader.grade(patterns, faults)
        cold_seconds = time.perf_counter() - start
        cold_setup = spawn_seconds + pool.stats["last_setup_seconds"]

        start = time.perf_counter()
        warm_detected = grader.grade(patterns, faults)
        warm_seconds = time.perf_counter() - start
        warm_setup = pool.stats["last_setup_seconds"]

        assert cold_detected == serial_detected
        assert warm_detected == serial_detected
        assert pool.stats["install_hits"] >= 1

        print()
        print(f"Warm-pool fault grading of {len(faults):,} faults x "
              f"{len(patterns)} patterns [jobs={workers} on {cpus} cpu(s)]: "
              f"serial {serial_seconds:.2f}s, cold {cold_seconds:.2f}s "
              f"(setup {cold_setup:.3f}s), warm {warm_seconds:.2f}s "
              f"(setup {warm_setup * 1000:.2f}ms)")
        _record("pool_warm_grading", warm_seconds,
                serial_seconds=round(serial_seconds, 4),
                cold_seconds=round(cold_seconds, 4),
                cold_setup_seconds=round(cold_setup, 4),
                warm_setup_seconds=round(warm_setup, 6),
                spawn_seconds=round(spawn_seconds, 4),
                jobs=4, jobs_resolved=workers, cpus=cpus,
                faults=len(faults), patterns=len(patterns),
                detected=len(warm_detected),
                worker_restarts=pool.stats["worker_restarts"])
        _record_parallel_speedup("pool_warm_grading_speedup",
                                 serial_seconds, warm_seconds, 4)

        # The amortisation claim holds on any machine: a warm re-entry
        # must skip at least 10x the cold spin-up cost.
        assert warm_setup * 10.0 <= cold_setup
        if RUNTIME_BENCH_CONFIG == "date13" and cpus >= 4:
            # Tentpole acceptance pin: with real cores, the warm pool must
            # beat the serial grade outright.
            assert warm_seconds < serial_seconds
    finally:
        pool.close()


def test_runtime_static_learning(runtime_soc):
    """FULL-effort detection phases with the static layer's learning on
    and off.

    With ``static_learning`` the PODEM searches consult the learned
    implications and SCOAP guidance (:mod:`repro.analysis`).  Both sides
    run :func:`~repro.atpg.engine.run_detection_phases` (random patterns,
    the static prover, then PODEM) over the same deterministic sample of
    the faults the tied-value analysis leaves unclassified, and
    ``BENCH_latest.json`` records PODEM calls, backtracks and wall clock
    for each side, plus the one-off build of the static handle.

    The sample is intentionally small — a single date13 PODEM refutation
    of a random-resistant fault can run for seconds, so the full
    population is out of benchmark budget.
    """
    from repro.analysis import get_static_analysis
    from repro.atpg.engine import AtpgEffort, run_detection_phases

    netlist = runtime_soc.cpu
    all_faults = generate_fault_list(netlist).faults()
    tie_report = StructuralUntestabilityEngine(netlist).classify(all_faults)
    remaining = [f for f in all_faults
                 if f not in tie_report.classifications]
    # Most of the sample falls to the random phase; the rest (about 18
    # faults on small and date13) reaches PODEM.
    sample = remaining[::max(1, len(remaining) // 64)][:64]

    start = time.perf_counter()
    get_static_analysis(netlist)
    build_seconds = time.perf_counter() - start

    start = time.perf_counter()
    on_cls, _, on_stats, _ = run_detection_phases(
        netlist, sample, AtpgEffort.FULL)
    on_seconds = time.perf_counter() - start

    start = time.perf_counter()
    off_cls, _, off_stats, _ = run_detection_phases(
        netlist, sample, AtpgEffort.FULL, static_learning=False)
    off_seconds = time.perf_counter() - start

    # Soundness: the two runs may only disagree across the PODEM abort
    # boundary (SCOAP guidance reorders the search, so at a fixed
    # backtrack limit a fault can flip between ABORTED and a definite
    # verdict in either direction — which is why "static" is a cache
    # facet).  A DT <-> UU contradiction would be a real bug.
    assert on_cls.keys() == off_cls.keys() == set(sample)
    for fault, off_class in off_cls.items():
        on_class = on_cls[fault]
        if on_class != off_class:
            assert "AU" in (on_class.name, off_class.name), (
                f"{fault}: {off_class.name} -> {on_class.name}")
    # Learning only steers the searches: both sides prove and search the
    # same faults.
    assert on_stats.get("static_proved") == off_stats.get("static_proved")
    assert on_stats.get("podem_calls", 0) == off_stats.get("podem_calls", 0)

    print()
    print(f"Static learning over a sample of {len(sample)} faults "
          f"(build {build_seconds:.2f}s): on {on_seconds:.1f}s / "
          f"{on_stats.get('podem_backtracks', 0)} backtracks, off "
          f"{off_seconds:.1f}s / {off_stats.get('podem_backtracks', 0)} "
          f"backtracks, {on_stats.get('podem_calls', 0)} PODEM calls each")
    _record("static_learning", on_seconds,
            build_seconds=round(build_seconds, 4),
            sample=len(sample),
            static_proved=on_stats.get("static_proved", 0),
            podem_calls=on_stats.get("podem_calls", 0),
            podem_backtracks=on_stats.get("podem_backtracks", 0),
            learned_skips=on_stats.get("learned_skips", 0),
            podem_calls_without=off_stats.get("podem_calls", 0),
            podem_backtracks_without=off_stats.get("podem_backtracks", 0),
            seconds_without=round(off_seconds, 4))


def test_runtime_atpg_portfolio(runtime_soc):
    """The ATPG portfolio: serial reference PODEM vs ``dalg`` fanned over
    pool workers at ``--jobs 4``.

    ATPG cost on date13 is dominated by a tail of huge-fanout-cone faults
    (a single search can run ~150s regardless of the backtrack budget —
    the cost is decisions x full-netlist implication, which no budget
    caps), so the stage samples the small-cone half of the searchable
    population: the portfolio is measured on faults it can iterate on
    inside a benchmark budget, and the sample is deterministic so runs
    stay comparable.

    Two pins always run: the dalg backend must agree with the reference
    on every verdict outside the abort boundary (its primary search *is*
    the classic search and its escalation only re-attacks aborts, so a
    DT <-> UU contradiction would be a real bug), and the parallel run
    must detect/abort exactly what its verdicts say.  The >= 2x speedup pin arms on date13 when the machine
    has at least 4 cores — pool workers cannot beat a GIL-free
    serial walk on a single-core CI box, which still records honest
    numbers (and the core count) into ``BENCH_latest.json``.
    """
    from repro.atpg.engine import AtpgEffort
    from repro.faults.categories import FaultClass
    from repro.netlist.compiled import get_compiled
    from repro.runtime import cone_representative
    from repro.simulation.kernels import resolve_site

    netlist = runtime_soc.cpu
    population = generate_fault_list(netlist).faults()
    tie_report = StructuralUntestabilityEngine(netlist).classify(population)
    searchable = [f for f in population
                  if f not in tie_report.classifications]
    assert searchable

    compiled = get_compiled(netlist)
    sizes = compiled.fanout_cone_sizes()

    def cone_cost(fault):
        rep = cone_representative(compiled, resolve_site(compiled, fault))
        return sizes[rep] if rep >= 0 else 0

    costed = sorted((cone_cost(f), i) for i, f in enumerate(searchable))
    small = [searchable[i] for _, i in costed[:max(1, len(costed) // 2)]]
    sample = small[::max(1, len(small) // 64)][:64]

    kw = dict(effort=AtpgEffort.FULL, random_patterns=0, backtrack_limit=24)

    start = time.perf_counter()
    serial_report = StructuralUntestabilityEngine(netlist, **kw).classify(
        sample)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel_report = StructuralUntestabilityEngine(
        netlist, jobs=4, atpg_backend="dalg", **kw).classify(sample)
    parallel_seconds = time.perf_counter() - start

    # Soundness across the portfolio: verdicts may only differ where one
    # side aborted (escalation can rescue an AU into DT/UU; it can never
    # flip a completed verdict).
    for fault, ref_class in serial_report.classifications.items():
        dalg_class = parallel_report.classifications[fault]
        if ref_class != dalg_class:
            assert FaultClass.AU in (ref_class, dalg_class), (
                f"{fault}: {ref_class.name} -> {dalg_class.name}")

    def counts(report):
        tally: dict = {}
        for fault_class in report.classifications.values():
            tally[fault_class.value] = tally.get(fault_class.value, 0) + 1
        return dict(sorted(tally.items()))

    cpus = os.cpu_count() or 1
    speedup = (serial_seconds / parallel_seconds
               if parallel_seconds else float("inf"))
    print()
    print(f"ATPG portfolio on {len(sample)} small-cone faults "
          f"(backtrack limit 24): serial podem {serial_seconds:.2f}s "
          f"{counts(serial_report)}, dalg --jobs 4 "
          f"{parallel_seconds:.2f}s {counts(parallel_report)} "
          f"({speedup:.2f}x on {cpus} cpu(s))")
    from repro.simulation.sharded import resolve_jobs
    _record("atpg_portfolio", parallel_seconds,
            serial_seconds=round(serial_seconds, 4),
            jobs=4, jobs_resolved=resolve_jobs(4), backend="dalg",
            cpus=cpus, sample=len(sample), backtrack_limit=24,
            serial_counts=counts(serial_report),
            parallel_counts=counts(parallel_report))
    _record_parallel_speedup("atpg_portfolio_speedup",
                             serial_seconds, parallel_seconds, 4)
    if RUNTIME_BENCH_CONFIG == "date13" and cpus >= 4:
        # Portfolio-PR acceptance pin: the dalg fan-out must at least
        # halve the serial reference wall clock when the cores exist.
        assert parallel_seconds < serial_seconds / 2.0


def _median_with_spread(samples):
    """``(median, q1, q3)`` of a list of timings."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return median, q1, q3


def test_runtime_podem_search_start():
    """The cost of starting one search, as every classification pays it.

    One repeat builds a :class:`~repro.atpg.podem.Podem` engine on tiny
    (with the static handle, as the FULL phase does) and starts one
    :class:`~repro.atpg.podem.LiveMachine` for the next fault of a fixed
    sample.  The engine reads the combinational view memoised for the
    netlist state, and the machine starts from its settled fault-free
    planes, so a repeat evaluates only the fault's cone.  For scale, the
    stage also times building that view from scratch (the constant
    fixpoint through the flip-flops, the observation points and the
    fault-free sweep), which each engine construction and each search
    start used to pay.  Medians with their quartiles are recorded beside
    the core count.
    """
    from repro.analysis import get_static_analysis
    from repro.atpg.podem import LiveMachine, Podem
    from repro.atpg.view import CombinationalView
    from repro.faults.models import resolve_injection
    from repro.netlist.compiled import get_compiled
    from repro.soc.config import SoCConfig
    from repro.soc.soc_builder import build_soc

    netlist = build_soc(SoCConfig.from_name("tiny")).cpu
    faults = generate_fault_list(netlist).faults()
    sample = faults[::max(1, len(faults) // 50)][:50]
    static = get_static_analysis(netlist)
    repeats = 200

    starts = []
    for index in range(repeats):
        fault = sample[index % len(sample)]
        begin = time.perf_counter()
        podem = Podem(netlist, static=static)
        stem, branch_op, branch_pos = podem.view.fault_refs(fault)
        LiveMachine(podem, stem, branch_op, branch_pos,
                    resolve_injection(fault).stuck_value)
        starts.append(time.perf_counter() - begin)

    builds = []
    compiled = get_compiled(netlist)
    for _ in range(15):
        begin = time.perf_counter()
        CombinationalView(compiled)
        builds.append(time.perf_counter() - begin)

    start_median, start_q1, start_q3 = _median_with_spread(starts)
    build_median, build_q1, build_q3 = _median_with_spread(builds)
    print()
    print(f"PODEM search start on tiny ({repeats} repeats over "
          f"{len(sample)} faults): median {start_median * 1e3:.3f} ms "
          f"(q1 {start_q1 * 1e3:.3f}, q3 {start_q3 * 1e3:.3f}); building "
          f"the view from scratch: median {build_median * 1e3:.2f} ms")
    _record("podem_search_start", start_median,
            config="tiny", repeats=repeats, faults=len(sample),
            q1_seconds=round(start_q1, 6), q3_seconds=round(start_q3, 6),
            median_ms=round(start_median * 1e3, 4),
            view_build_median_seconds=round(build_median, 6),
            view_build_q1_seconds=round(build_q1, 6),
            view_build_q3_seconds=round(build_q3, 6),
            view_build_repeats=len(builds),
            cpus=os.cpu_count() or 1)
    # The point of the shared view: a search start costs a fraction of
    # the per-netlist setup it no longer repeats.
    assert start_median < build_median


def test_runtime_word_grade_kernel(runtime_soc):
    """The serial word kernel on one full-population grade.

    Grades every stuck-at fault against the seed-2013 SBST capture with
    the serial :class:`~repro.sbst.grading.FaultGrader` (one
    ``detect_windows`` call), repeated, and records the median with its
    quartiles and the core count, beside the number of distinct faulty
    machines the kernel simulates for the population.
    """
    from repro.faults.models import resolve_injection
    from repro.netlist.compiled import get_compiled
    from repro.simulation.kernels import observation_flags, resolve_site
    from repro.simulation.parallel import injection_groups

    netlist = runtime_soc.cpu
    patterns = ToggleMonitor(netlist).run_suite(
        generate_sbst_suite(runtime_soc.config.cpu, seed=2013))
    faults = generate_fault_list(netlist).faults()
    grader = FaultGrader(netlist)
    repeats = 5

    samples = []
    detected = None
    for _ in range(repeats):
        begin = time.perf_counter()
        graded = grader.grade(patterns, faults)
        samples.append(time.perf_counter() - begin)
        assert detected is None or graded == detected
        detected = graded

    compiled = get_compiled(netlist)
    groups = injection_groups(
        compiled, [(fault, resolve_site(compiled, fault),
                    resolve_injection(fault)) for fault in faults],
        observation_flags(compiled, grader.simulator.observation_nets))
    median, q1, q3 = _median_with_spread(samples)
    print()
    print(f"Serial word-kernel grade of {len(faults):,} faults x "
          f"{len(patterns)} patterns ({len(groups):,} distinct injections): "
          f"median {median:.3f} s (q1 {q1:.3f}, q3 {q3:.3f})")
    _record("word_grade_kernel", median,
            repeats=repeats, q1_seconds=round(q1, 4),
            q3_seconds=round(q3, 4), cpus=os.cpu_count() or 1,
            faults=len(faults), patterns=len(patterns),
            distinct_injections=len(groups), detected=len(detected))
    assert detected and len(groups) < len(faults)
