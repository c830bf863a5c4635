"""JSON round-trips of OnlineUntestableReport (and facet-aware cache keys)."""

from __future__ import annotations

import json

import pytest

from repro.api import RunOptions, Session
from repro.core.results import (TEXT_MEMO_ENTRIES, OnlineUntestableReport,
                                SourceSummary, sorted_fault_text)
from repro.faults.categories import OnlineUntestableSource, source_label
from repro.faults.fault import StuckAtFault
from repro.faults.models import TransitionFault
from repro.pipeline import step_keys


@pytest.fixture(scope="module")
def tiny_report(tiny_soc):
    return Session().analyze(tiny_soc)


class TestReportRoundTrip:
    def test_round_trip_preserves_the_table(self, tiny_report):
        restored = OnlineUntestableReport.from_json(tiny_report.to_json())
        assert restored.netlist_name == tiny_report.netlist_name
        assert restored.total_faults == tiny_report.total_faults
        assert restored.baseline_untestable == tiny_report.baseline_untestable
        assert restored.online_untestable == tiny_report.online_untestable
        assert restored.table_rows() == tiny_report.table_rows()
        assert restored.runtimes.keys() == tiny_report.runtimes.keys()
        for ours, theirs in zip(restored.sources, tiny_report.sources):
            assert ours.source is theirs.source
            assert ours.identified == theirs.identified
            assert ours.attributed == theirs.attributed

    def test_detail_objects_are_not_serialized(self, tiny_report):
        assert tiny_report.scan_result is not None
        restored = OnlineUntestableReport.from_json(tiny_report.to_json())
        assert restored.scan_result is None

    def test_json_document_shape(self, tiny_report):
        document = json.loads(tiny_report.to_json())
        assert document["schema"] == 1
        assert document["total_online_untestable"] == (
            tiny_report.total_online_untestable)
        assert all(" s-a-" in text
                   for text in document["baseline_untestable"][:5])
        assert document["table"] == tiny_report.table_rows()

    def test_unknown_source_label_is_rejected(self):
        report = OnlineUntestableReport(netlist_name="n", total_faults=4)
        report.sources.append(SourceSummary(
            source=OnlineUntestableSource.SCAN,
            identified={StuckAtFault("a/B", 0)},
            attributed={StuckAtFault("a/B", 0)}))
        document = report.to_json_dict()
        restored = OnlineUntestableReport.from_json_dict(document)
        assert restored.sources[0].source is OnlineUntestableSource.SCAN
        assert restored.online_untestable == report.online_untestable

        document["sources"][0]["source"] = "reset_tree"
        with pytest.raises(ValueError, match="'reset_tree'"):
            OnlineUntestableReport.from_json_dict(document)


def sorted_per_call_json(report: OnlineUntestableReport) -> str:
    """``to_json()`` as it read when every call sorted each fault set."""
    document = {
        "schema": 1,
        "netlist": report.netlist_name,
        "fault_model": report.fault_model,
        "total_faults": report.total_faults,
        "total_online_untestable": report.total_online_untestable,
        "baseline_untestable": sorted(str(f)
                                      for f in report.baseline_untestable),
        "sources": [{
            "source": source_label(summary.source),
            "identified": sorted(str(f) for f in summary.identified),
            "attributed": sorted(str(f) for f in summary.attributed),
            "runtime_seconds": summary.runtime_seconds,
        } for summary in report.sources],
        "table": report.table_rows(),
        "runtimes": dict(report.runtimes),
    }
    return json.dumps(document, indent=2, sort_keys=False)


@pytest.fixture(scope="module")
def tie_reports():
    session = Session()
    return {(design, model): session.analyze(
                design, options=RunOptions(effort="tie", fault_model=model))
            for design in ("tiny", "small")
            for model in ("stuck_at", "transition")}


def fault_lists(document):
    yield document["baseline_untestable"]
    for entry in document["sources"]:
        yield entry["identified"]
        yield entry["attributed"]


class TestFaultTextMemo:
    @pytest.mark.parametrize("design", ["tiny", "small"])
    @pytest.mark.parametrize("model", ["stuck_at", "transition"])
    def test_bytes_match_sorting_on_every_call(self, tie_reports, design,
                                               model):
        report = tie_reports[design, model]
        assert report.total_online_untestable > 0
        expected = sorted_per_call_json(report)
        assert report.to_json() == expected
        assert report.to_json() == expected  # warm: served from the memo

    def test_returned_lists_are_fresh(self, tie_reports):
        report = tie_reports["tiny", "stuck_at"]
        twin = OnlineUntestableReport.from_json(report.to_json())
        expected = sorted_per_call_json(report)
        document = report.to_json_dict()
        for items in fault_lists(document):
            items.append("u_bogus/A s-a-0")
            items.reverse()
        assert report.to_json() == expected
        assert twin.to_json() == sorted_per_call_json(twin)

    def test_equal_sets_of_distinct_faults_share_text(self, tie_reports):
        report = tie_reports["small", "transition"]
        twin = OnlineUntestableReport.from_json(report.to_json())
        originals = {fault: fault for fault in report.baseline_untestable}
        assert twin.baseline_untestable == report.baseline_untestable
        assert twin.baseline_untestable
        assert all(originals[fault] is not fault
                   for fault in twin.baseline_untestable)
        ours, theirs = report.to_json_dict(), twin.to_json_dict()
        for mine, other in zip(fault_lists(ours), fault_lists(theirs)):
            assert mine == other
            assert all(a is b for a, b in zip(mine, other))

    def test_models_never_share_an_entry(self):
        sites = [f"u{i}/A" for i in range(8)]
        stuck = frozenset(StuckAtFault(site, 0) for site in sites)
        transition = frozenset(TransitionFault(site, "str") for site in sites)
        sorted_fault_text.cache_clear()
        stuck_text = sorted_fault_text(stuck)
        transition_text = sorted_fault_text(transition)
        info = sorted_fault_text.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 0, 2)
        assert stuck_text == tuple(sorted(f"{s} s-a-0" for s in sites))
        assert transition_text == tuple(sorted(f"{s} str" for s in sites))

    def test_memo_stays_within_its_bound(self):
        sorted_fault_text.cache_clear()
        for index in range(TEXT_MEMO_ENTRIES + 16):
            report = OnlineUntestableReport(
                netlist_name="n", total_faults=1,
                baseline_untestable={StuckAtFault(f"u{index}/A", 1)})
            assert report.to_json_dict()["baseline_untestable"] == [
                f"u{index}/A s-a-1"]
            assert sorted_fault_text.cache_info().currsize <= (
                TEXT_MEMO_ENTRIES)
        assert sorted_fault_text.cache_info().currsize == TEXT_MEMO_ENTRIES


class TestFacetKeys:
    def test_effort_blind_passes_share_keys_across_efforts(self, tiny_soc):
        tie, full = (step_keys(tiny_soc.cpu, options=RunOptions(effort=e),
                               memory_map=tiny_soc.memory_map)
                     for e in ("tie", "full"))

        # Effort-blind steps replay across efforts; baseline must not.
        assert tie["scan_analysis"] == full["scan_analysis"]
        assert tie["fault_list"] == full["fault_list"]
        assert tie["baseline"] != full["baseline"]
