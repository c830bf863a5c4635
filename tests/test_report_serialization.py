"""JSON round-trips of OnlineUntestableReport (and facet-aware cache keys)."""

from __future__ import annotations

import json

import pytest

from repro.api import Session
from repro.core.results import OnlineUntestableReport, SourceSummary
from repro.faults.categories import OnlineUntestableSource
from repro.faults.fault import StuckAtFault
from repro.pipeline import DEFAULT_REGISTRY
from repro.pipeline.context import CONFIG_FACETS, PipelineContext


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

    def test_custom_source_labels_survive(self):
        report = OnlineUntestableReport(netlist_name="n", total_faults=4)
        report.sources.append(SourceSummary(
            source=OnlineUntestableSource.SCAN,
            identified={StuckAtFault("a/B", 0)},
            attributed={StuckAtFault("a/B", 0)}))
        report.sources.append(SourceSummary(
            source="reset_tree",  # a custom pass source, not an enum member
            identified={StuckAtFault("rst", 1)},
            attributed={StuckAtFault("rst", 1)}))
        restored = OnlineUntestableReport.from_json(report.to_json())
        assert restored.sources[0].source is OnlineUntestableSource.SCAN
        assert restored.sources[1].source == "reset_tree"
        assert restored.online_untestable == report.online_untestable


class TestFacetKeys:
    def test_effort_blind_passes_share_keys_across_efforts(self, tiny_soc):
        from repro.api import RunOptions

        tie = PipelineContext(tiny_soc.cpu,
                              options=RunOptions(effort="tie"),
                              memory_map=tiny_soc.memory_map)
        full = PipelineContext(tiny_soc.cpu,
                               options=RunOptions(effort="full"),
                               memory_map=tiny_soc.memory_map)
        scan = DEFAULT_REGISTRY.get("scan_analysis")
        fault_list = DEFAULT_REGISTRY.get("fault_list")
        baseline = DEFAULT_REGISTRY.get("baseline")

        # Effort-blind passes replay across efforts; baseline must not.
        assert tie.cache_key(scan) == full.cache_key(scan)
        assert tie.cache_key(fault_list) == full.cache_key(fault_list)
        assert tie.cache_key(baseline) != full.cache_key(baseline)

        # Plain-name keys keep the always-safe full configuration key.
        assert tie.cache_key("anything")[1] == tie.config_key

    def test_unknown_facet_is_rejected(self, tiny_soc):
        ctx = PipelineContext(tiny_soc.cpu)
        with pytest.raises(ValueError, match="unknown cache facet"):
            ctx.config_key_for(("voltage",))
        assert ctx.config_key_for(CONFIG_FACETS) == ctx.config_key
