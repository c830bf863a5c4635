"""Tests for the end-to-end identification flow, the Fig. 1 classification and
the Table-I style reporting."""

import pytest

from repro.atpg.engine import AtpgEffort
from repro.core.classification import build_fault_universe
from repro.api import Session
from repro.core.results import FlowConfig
from repro.core.report import render_source_details, render_summary_table
from repro.faults.categories import FaultClass, OnlineUntestableSource
from repro.faults.faultlist import generate_fault_list


class TestFlowOnTinyCore:
    def test_sources_are_disjoint_and_sum_to_total(self, tiny_flow_report):
        report = tiny_flow_report
        seen = set()
        total = 0
        for summary in report.sources:
            assert not (summary.attributed & seen)
            seen |= summary.attributed
            total += summary.count
        assert total == report.total_online_untestable

    def test_attributed_faults_exclude_baseline(self, tiny_flow_report):
        report = tiny_flow_report
        for summary in report.sources:
            assert not (summary.attributed & report.baseline_untestable)

    def test_all_four_sources_present(self, tiny_flow_report):
        sources = {summary.source for summary in tiny_flow_report.sources}
        assert sources == {
            OnlineUntestableSource.SCAN,
            OnlineUntestableSource.DEBUG_CONTROL,
            OnlineUntestableSource.DEBUG_OBSERVE,
            OnlineUntestableSource.MEMORY_MAP,
        }
        assert all(s.count > 0 for s in tiny_flow_report.sources)

    def test_shape_of_contributions(self, tiny_flow_report):
        """Every source contributes a non-trivial but bounded share of the
        universe (the Table-I proportions themselves are asserted on the
        full-size configuration by the benchmarks)."""
        report = tiny_flow_report
        for summary in report.sources:
            assert 0 < summary.count < 0.5 * report.total_faults
        fraction = report.total_online_untestable / report.total_faults
        assert 0.02 < fraction < 0.5

    def test_table_rows_layout(self, tiny_flow_report):
        rows = tiny_flow_report.table_rows()
        assert [row["source"] for row in rows] == [
            "Original", "Scan", "Debug", "Memory", "TOTAL"]
        debug_row = rows[2]
        assert "+" in debug_row["detail"]
        total_row = rows[-1]
        assert total_row["count"] == tiny_flow_report.total_online_untestable

    def test_rendered_table(self, tiny_flow_report):
        text = render_summary_table(tiny_flow_report)
        assert "On-line functionally untestable faults" in text
        assert "Scan" in text and "TOTAL" in text and "%" in text

    def test_rendered_details(self, tiny_flow_report):
        text = render_source_details(tiny_flow_report, max_faults_per_source=3)
        assert "scan" in text
        assert "s-a-" in text
        assert "TOTAL" in text

    def test_runtimes_recorded(self, tiny_flow_report):
        for phase in ("fault_list", "baseline", "scan", "debug_control",
                      "debug_observe", "memory_map"):
            assert phase in tiny_flow_report.runtimes

    def test_apply_to_fault_list(self, tiny_soc, tiny_flow_report):
        fault_list = generate_fault_list(tiny_soc.cpu)
        pruned = tiny_flow_report.apply_to_fault_list(fault_list)
        assert len(pruned) == len(fault_list) - tiny_flow_report.total_online_untestable
        classified = fault_list.with_source(OnlineUntestableSource.SCAN)
        assert len(classified) == tiny_flow_report.source_count(OnlineUntestableSource.SCAN)

    def test_flow_is_deterministic(self, tiny_soc, tiny_flow_report):
        second = Session().analyze(tiny_soc)
        assert second.online_untestable == tiny_flow_report.online_untestable
        assert [s.count for s in second.sources] == [
            s.count for s in tiny_flow_report.sources]


class TestFlowConfiguration:
    def test_disable_individual_sources(self, tiny_soc):
        config = FlowConfig(run_scan=False, run_memory_map=False)
        report = Session().analyze(tiny_soc, config=config)
        sources = {s.source for s in report.sources}
        assert OnlineUntestableSource.SCAN not in sources
        assert OnlineUntestableSource.MEMORY_MAP not in sources
        assert OnlineUntestableSource.DEBUG_CONTROL in sources

    def test_netlist_target_with_explicit_memory_map(self, tiny_soc):
        report = Session().analyze(tiny_soc.cpu,
                                   memory_map=tiny_soc.memory_map)
        assert report.source_count(OnlineUntestableSource.MEMORY_MAP) > 0

    def test_restricted_fault_universe(self, tiny_soc):
        universe = [f for f in generate_fault_list(tiny_soc.cpu).faults()
                    if not f.is_port_fault][:2000]
        report = Session().analyze(tiny_soc, faults=universe)
        assert report.total_faults == len(universe)
        assert report.online_untestable <= set(universe)

    def test_fig6_ablation_knob(self, tiny_soc):
        session = Session()
        full = session.analyze(
            tiny_soc, config=FlowConfig(run_scan=False,
                                        run_debug_control=False,
                                        run_debug_observe=False))
        stop_at_ff = session.analyze(
            tiny_soc, config=FlowConfig(run_scan=False,
                                        run_debug_control=False,
                                        run_debug_observe=False,
                                        tie_flop_outputs=False))
        assert (stop_at_ff.source_count(OnlineUntestableSource.MEMORY_MAP)
                <= full.source_count(OnlineUntestableSource.MEMORY_MAP))


class TestFaultUniverseClassification:
    def test_fig1_containment(self, tiny_soc, tiny_flow_report):
        universe = build_fault_universe(
            tiny_soc.cpu,
            functional_constraints={"scan_enable": 0},
            online_untestable=tiny_flow_report.online_untestable)
        assert universe.containment_holds()
        counts = universe.counts()
        assert counts["all"] == tiny_flow_report.total_faults
        assert counts["structurally_untestable"] <= counts["functionally_untestable"]
        assert counts["functionally_untestable"] <= counts["online_functionally_untestable"]
        assert (counts["online_functionally_untestable"] + counts["online_detectable"]
                == counts["all"])

    def test_online_detectable_complement(self, tiny_soc, tiny_flow_report):
        universe = build_fault_universe(
            tiny_soc.cpu, online_untestable=tiny_flow_report.online_untestable)
        assert universe.online_detectable.isdisjoint(
            universe.online_functionally_untestable)
