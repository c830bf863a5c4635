"""Ablation ``design_choices`` — the knobs called out in DESIGN.md.

* fault collapsing on/off: the on-line untestable *fraction* is essentially
  unchanged whether it is counted on the collapsed or uncollapsed universe;
* scan-path buffer handling: excluding the dedicated serial-path buffers
  loses a measurable part of the scan population;
* Fig. 6 knob: stopping the memory-map ties at the flip-flop boundary finds
  fewer faults than also tieing the register outputs;
* ATPG effort: the cheap tied-value analysis already finds everything the
  per-source flow needs — raising the effort only reclassifies the remaining
  (testable) faults.
"""

from repro.atpg.engine import AtpgEffort, StructuralUntestabilityEngine
from repro.api import Session
from repro.core.results import FlowConfig
from repro.core.scan_analysis import identify_scan_untestable
from repro.faults.categories import OnlineUntestableSource
from repro.faults.collapse import collapse_fault_list
from repro.faults.faultlist import generate_fault_list
from repro.manipulation.tie import tie_port


def test_collapsed_vs_uncollapsed_fraction(tiny_soc, tiny_report, benchmark):
    uncollapsed = generate_fault_list(tiny_soc.cpu)
    collapsed = benchmark(collapse_fault_list, tiny_soc.cpu, uncollapsed)

    online = tiny_report.online_untestable
    uncollapsed_fraction = len(online) / len(uncollapsed)
    collapsed_online = [f for f in collapsed.faults() if f in online]
    collapsed_fraction = len(collapsed_online) / len(collapsed)

    print()
    print(f"Uncollapsed: {len(online):,}/{len(uncollapsed):,} = {uncollapsed_fraction:.1%}")
    print(f"Collapsed  : {len(collapsed_online):,}/{len(collapsed):,} = {collapsed_fraction:.1%}")
    assert abs(collapsed_fraction - uncollapsed_fraction) < 0.10


def test_scan_path_buffer_contribution(small_soc, benchmark):
    result = benchmark(identify_scan_untestable, small_soc.cpu)
    counts = result.counts()
    print()
    print(f"Scan population split: SI={counts['serial_input']:,} "
          f"SE={counts['scan_enable']:,} path buffers={counts['path']:,} "
          f"ports={counts['ports']:,}")
    # The dedicated serial-path buffers are a visible slice of the scan
    # population (the paper explicitly reminds the reader to include them).
    assert counts["path"] > 0.02 * counts["total"]
    assert counts["serial_input"] == 2 * counts["cells"]


def test_fig6_knob_on_full_core(small_soc, benchmark):
    full = benchmark.pedantic(
        lambda: Session().analyze(
            small_soc, config=FlowConfig(run_scan=False,
                                         run_debug_control=False,
                                         run_debug_observe=False)),
        rounds=1, iterations=1, warmup_rounds=0)
    stop_at_ff = Session().analyze(
        small_soc, config=FlowConfig(run_scan=False, run_debug_control=False,
                                     run_debug_observe=False,
                                     tie_flop_outputs=False))
    full_count = full.source_count(OnlineUntestableSource.MEMORY_MAP)
    stop_count = stop_at_ff.source_count(OnlineUntestableSource.MEMORY_MAP)
    print()
    print(f"Memory-map faults: tie D+Q = {full_count:,}, tie D only = {stop_count:,}")
    assert stop_count <= full_count


def test_atpg_effort_consistency(tiny_soc, benchmark):
    """Raising the engine effort never removes faults from the untestable set
    found by the cheap tied-value phase (it only classifies more of the rest)."""
    manipulated = tiny_soc.cpu.clone("debug_tied")
    for port, value in tiny_soc.debug_interface.control_inputs.items():
        tie_port(manipulated, port, value)
    faults = generate_fault_list(manipulated).faults()[:4000]

    tie_report = benchmark.pedantic(
        lambda: StructuralUntestabilityEngine(
            manipulated, effort=AtpgEffort.TIE).classify(faults),
        rounds=1, iterations=1, warmup_rounds=0)
    random_report = StructuralUntestabilityEngine(
        manipulated, effort=AtpgEffort.RANDOM, random_patterns=64).classify(faults)

    tie_untestable = set(tie_report.untestable)
    random_untestable = set(random_report.untestable)
    print()
    print(f"TIE effort: {len(tie_untestable):,} untestable; "
          f"RANDOM effort: {len(random_untestable):,} untestable, "
          f"{len(random_report.detected):,} proven detectable")
    assert tie_untestable <= random_untestable
    assert not (set(random_report.detected) & random_untestable)
