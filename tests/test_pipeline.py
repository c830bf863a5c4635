"""Tests for the six-step §4 flow (repro.pipeline).

Covers the step table, source selection through FlowConfig, skipping the
memory step, caching, the pinned cache keys every stored entry is filed
under, and fault-for-fault equivalence of the flow with the one-shot
``Session.analyze`` report.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.api import RunOptions, Session
from repro.core.results import FlowConfig, OnlineUntestableReport
from repro.faults.categories import PAPER_SOURCE_ORDER, OnlineUntestableSource
from repro.pipeline import (CONFIG_FACETS, STEPS, ArtifactCache,
                            netlist_signature, run_flow, step_keys)

RUNTIME_KEYS = ["fault_list", "baseline", "scan", "debug_control",
                "debug_observe", "memory_map"]


# --------------------------------------------------------------------- #
# the step table
# --------------------------------------------------------------------- #
class TestSteps:
    def test_six_steps_in_paper_order(self):
        assert [step.name for step in STEPS] == [
            "fault_list", "baseline", "scan_analysis", "debug_control",
            "debug_observe", "memory_analysis"]
        assert [step.runtime_key for step in STEPS] == RUNTIME_KEYS
        assert tuple(step.source for step in STEPS[2:]) == PAPER_SOURCE_ORDER
        flow_fields = {f.name for f in dataclasses.fields(FlowConfig)}
        report_fields = {f.name for f in dataclasses.fields(
            OnlineUntestableReport)}
        for step in STEPS:
            # Facets are listed in key order; foundations have no switch.
            assert step.facets == tuple(f for f in CONFIG_FACETS
                                        if f in step.facets)
            assert (step.switch is None) == (step.source is None)
            if step.source is not None:
                assert step.switch in flow_fields
                assert step.detail_field in report_fields

    def test_flow_config_selects_the_sources(self, tiny_soc):
        session = Session()
        full = session.analyze(tiny_soc)
        report = session.analyze(
            tiny_soc, config=FlowConfig(run_scan=False, run_memory_map=False))
        assert list(report.runtimes) == [
            "fault_list", "baseline", "debug_control", "debug_observe"]
        assert [s.source for s in report.sources] == [
            OnlineUntestableSource.DEBUG_CONTROL,
            OnlineUntestableSource.DEBUG_OBSERVE]
        assert report.scan_result is None and report.memory_result is None
        assert report.baseline_untestable == full.baseline_untestable


# --------------------------------------------------------------------- #
# execution & skipping
# --------------------------------------------------------------------- #
class TestExecution:
    def test_memory_pass_skipped_without_memory_map(self, tiny_soc):
        clone = tiny_soc.cpu.clone("no_memmap")
        clone.annotations.pop("memory_map", None)
        report = Session().analyze(clone)
        assert report.memory_result is None
        assert "memory_map" not in report.runtimes
        assert OnlineUntestableSource.MEMORY_MAP not in {
            s.source for s in report.sources}
        assert report.scan_result is not None

    def test_runtimes_recorded(self, tiny_soc):
        report = Session().analyze(tiny_soc)
        assert list(report.runtimes) == RUNTIME_KEYS
        assert all(runtime >= 0 for runtime in report.runtimes.values())
        for summary in report.sources:
            assert summary.runtime_seconds == report.runtimes[
                summary.source.value]


# --------------------------------------------------------------------- #
# caching
# --------------------------------------------------------------------- #
class TestCaching:
    def test_second_run_replays_from_cache(self, tiny_soc):
        cache = ArtifactCache()
        first = run_flow(tiny_soc.cpu, cache, memory_map=tiny_soc.memory_map)
        assert cache.stats["hits"] == 0 and cache.stats["misses"] == 6
        second = run_flow(tiny_soc.cpu, cache,
                          memory_map=tiny_soc.memory_map)
        assert cache.stats["hits"] == 6 and cache.stats["misses"] == 6
        assert second.online_untestable == first.online_untestable
        assert [s.count for s in second.sources] == [
            s.count for s in first.sources]

    def test_structural_clone_hits_the_cache(self, tiny_soc):
        assert (netlist_signature(tiny_soc.cpu)
                == netlist_signature(tiny_soc.cpu.clone(tiny_soc.cpu.name)))

    def test_tie_changes_the_signature(self, tiny_soc):
        clone = tiny_soc.cpu.clone(tiny_soc.cpu.name)
        some_net = next(iter(clone.nets))
        clone.nets[some_net].tied = 0
        assert netlist_signature(clone) != netlist_signature(tiny_soc.cpu)


# --------------------------------------------------------------------- #
# the store contract: every stored entry is filed under these bytes
# --------------------------------------------------------------------- #
TINY_SIGNATURE = (
    "fb30cd25a4d6282c07671f3ff82ad0bab491301944be9ea2b280218957733ad3")
TINY_MEMMAP = "memmap=w8[flash:0:32;sram:128:16]"


def _pinned_keys(model: str, effort: str):
    engine = (f"model={model};effort={effort};faults=;"
              "static=prune1:learn1;atpg=podem:engine")
    return {
        "fault_list": f"model={model};faults=",
        "baseline": engine,
        "scan_analysis": f"model={model}",
        "debug_control": engine,
        "debug_observe": engine,
        "memory_analysis": (f"model={model};effort={effort};"
                            f"tie_out=1;tie_in=1;{TINY_MEMMAP};faults=;"
                            "static=prune1:learn1;atpg=podem:engine"),
    }


class TestStoreContract:
    @pytest.mark.parametrize("options, model, effort", [
        (RunOptions(), "stuck_at", "TIE"),
        (RunOptions(fault_model="transition"), "transition", "TIE"),
        (RunOptions(effort="full"), "stuck_at", "FULL"),
    ], ids=["default", "transition", "full"])
    def test_step_keys_are_pinned(self, options, model, effort):
        design = Session().design("tiny")
        keys = step_keys(design.netlist, memory_map=design.memory_map,
                         options=options)
        assert keys == {name: (TINY_SIGNATURE, config_key, name)
                        for name, config_key
                        in _pinned_keys(model, effort).items()}


# --------------------------------------------------------------------- #
# equivalence of the entry points with the one-shot reference analysis
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def small_legacy_report(small_soc):
    """The reference report of the one-shot flow: a fresh session's serial
    analysis of the paper's default steps."""
    return Session().analyze(small_soc)


def _assert_reports_equivalent(report, legacy):
    assert report.netlist_name == legacy.netlist_name
    assert report.total_faults == legacy.total_faults
    assert report.baseline_untestable == legacy.baseline_untestable
    assert [s.source for s in report.sources] == [
        s.source for s in legacy.sources]
    for mine, theirs in zip(report.sources, legacy.sources):
        assert mine.identified == theirs.identified
        assert mine.attributed == theirs.attributed
    assert report.online_untestable == legacy.online_untestable
    # Byte-identical Table I (the percent column is derived from counts).
    assert ([{k: v for k, v in row.items() if k != "percent"}
             for row in report.table_rows()]
            == [{k: v for k, v in row.items() if k != "percent"}
                for row in legacy.table_rows()])
    assert report.to_table() == legacy.to_table()
    assert sorted(report.runtimes) == sorted(legacy.runtimes)


class TestLegacyEquivalence:
    def test_serial_pipeline_matches_legacy(self, small_soc,
                                            small_legacy_report):
        report = run_flow(small_soc.cpu, ArtifactCache(),
                          memory_map=small_soc.memory_map)
        _assert_reports_equivalent(report, small_legacy_report)

    def test_analyze_entry_point_matches_legacy(self, small_soc,
                                                small_legacy_report):
        report = Session().analyze(small_soc)
        _assert_reports_equivalent(report, small_legacy_report)

    def test_passes_run_serially_with_no_scheduler_knob(self, tiny_soc):
        # Parallelism lives below the steps (RunOptions.jobs); the flow
        # has no thread scheduler to configure.
        for knob in ("parallel", "max_workers"):
            with pytest.raises(TypeError):
                run_flow(tiny_soc.cpu, ArtifactCache(), **{knob: 2})

    def test_public_api_exports(self):
        assert set(repro.__all__) >= {
            "Session", "RunOptions", "ArtifactCache", "FlowConfig"}
        assert not {"analyze", "OnlineUntestableFlow", "Pipeline",
                    "PipelineBuilder", "PipelineResult", "AnalysisPass",
                    "default_pass_names"} & set(repro.__all__)
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None
