"""Ablation ``scaling`` — sensitivity of the on-line untestable fraction.

Not part of the paper's evaluation, but a check that the synthetic cores
behave like the paper's: how does the on-line functionally untestable
fraction react to (a) the size of the core and (b) the size of the mapped
memory?  The expectation is that the scan
fraction tracks the sequential-cell share of the design, while the memory-map
fraction shrinks as more of the address space becomes legal.
"""

import pytest

from repro.api import Session
from repro.core.results import FlowConfig
from repro.faults.categories import OnlineUntestableSource
from repro.memory.memory_map import MemoryMap, MemoryRegion
from repro.soc.config import SoCConfig
from repro.soc.soc_builder import build_soc


def test_core_size_sweep(tiny_report, small_report, date13_report, benchmark):
    """The OLFU fraction stays in the same band across core sizes, and the
    debug share shrinks as the (fixed-size) debug block is amortised over a
    larger core."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1, warmup_rounds=0)

    rows = []
    for name, report in (("tiny", tiny_report), ("small", small_report),
                         ("date13", date13_report)):
        fraction = report.total_online_untestable / report.total_faults
        debug = (report.source_count(OnlineUntestableSource.DEBUG_CONTROL)
                 + report.source_count(OnlineUntestableSource.DEBUG_OBSERVE))
        rows.append((name, report.total_faults, fraction,
                     debug / report.total_faults))

    print()
    print("Core-size sweep (configuration, faults, OLFU fraction, debug share):")
    for row in rows:
        print(f"  {row[0]:8s} {row[1]:8,}  {row[2]:6.1%}  {row[3]:6.1%}")

    fractions = [row[2] for row in rows]
    debug_shares = [row[3] for row in rows]
    assert all(0.05 < f < 0.40 for f in fractions)
    # Debug logic is a fixed-size block: its share decreases monotonically
    # with core size.
    assert debug_shares[0] > debug_shares[1] > debug_shares[2]


@pytest.mark.parametrize("mapped_kib, expect_free_bits", [(1, 10), (8, 13), (32, 15)])
def test_memory_map_size_sweep(mapped_kib, expect_free_bits, benchmark):
    """Growing the mapped memory frees more address bits; as long as some bits
    stay frozen the memory-map source keeps finding faults."""
    cpu = SoCConfig.small().cpu  # 16-bit address bus
    memory_map = MemoryMap(cpu.addr_width,
                           [MemoryRegion("mem", 0, mapped_kib * 1024)])
    soc = build_soc(SoCConfig(cpu=cpu, memory_map=memory_map))
    flow_config = FlowConfig(run_scan=False, run_debug_control=False,
                             run_debug_observe=False)
    report = benchmark.pedantic(
        lambda: Session().analyze(soc, config=flow_config),
        rounds=1, iterations=1, warmup_rounds=0)
    memory = report.source_count(OnlineUntestableSource.MEMORY_MAP)
    from repro.memory.analysis import free_address_bits

    free = free_address_bits(memory_map)
    print()
    print(f"mapped={mapped_kib} KiB free_bits={len(free)} "
          f"memory-map OLFU={memory:,} ({report.percentage(memory):.1f}%)")
    assert len(free) == expect_free_bits
    assert memory > 0


def test_memory_contribution_decreases_with_mapped_size():
    cpu = SoCConfig.small().cpu
    results = []
    for mapped_kib in (1, 8, 32):
        memory_map = MemoryMap(cpu.addr_width,
                               [MemoryRegion("mem", 0, mapped_kib * 1024)])
        soc = build_soc(SoCConfig(cpu=cpu, memory_map=memory_map))
        config = FlowConfig(run_scan=False, run_debug_control=False,
                            run_debug_observe=False)
        report = Session().analyze(soc, config=config)
        results.append(report.source_count(OnlineUntestableSource.MEMORY_MAP))
    assert results[0] >= results[1] >= results[2]
