"""Tests for the composable analysis-pass pipeline (repro.pipeline).

Covers the registry (registration, lookup, duplicates), dependency
resolution (transitive providers, missing providers, cycle detection),
pass skipping, caching, and fault-for-fault equivalence of the pipeline
(serial and parallel) with the one-shot ``Session.analyze`` report.
"""

from __future__ import annotations

import pytest

import repro
from repro.api import Session
from repro.core.results import FlowConfig
from repro.faults.categories import OnlineUntestableSource
from repro.pipeline import (AnalysisPass, ArtifactCache, DependencyCycleError,
                            FunctionPass, PassRegistrationError, PassRegistry,
                            PassResult, Pipeline, PipelineError,
                            analysis_pass, default_pass_names,
                            netlist_signature)


def make_pass(name, requires=(), provides=(), source=None, fn=None, when=None):
    return FunctionPass(fn or (lambda ctx: PassResult(
        artifacts={key: name for key in provides})),
        name=name, source=source, requires=requires, provides=provides,
        when=when)


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_register_and_lookup(self):
        registry = PassRegistry()
        pass_ = make_pass("p1", provides=("a",))
        registry.register(pass_)
        assert registry.get("p1") is pass_
        assert "p1" in registry
        assert registry.names() == ["p1"]

    def test_duplicate_name_rejected(self):
        registry = PassRegistry()
        registry.register(make_pass("p1"))
        with pytest.raises(PassRegistrationError):
            registry.register(make_pass("p1"))

    def test_unknown_name_lists_known_passes(self):
        registry = PassRegistry()
        registry.register(make_pass("known"))
        with pytest.raises(KeyError, match="known"):
            registry.get("unknown")

    def test_decorator_registers_function_pass(self):
        registry = PassRegistry()

        @analysis_pass("deco", provides=("x",), registry=registry)
        def deco(ctx):
            return PassResult(artifacts={"x": 42})

        assert isinstance(deco, FunctionPass)
        assert isinstance(deco, AnalysisPass)  # protocol check
        assert registry.get("deco") is deco

    def test_provider_lookup(self):
        registry = PassRegistry()
        pass_ = make_pass("p1", provides=("a", "b"))
        registry.register(pass_)
        assert registry.provider_of("b") is pass_
        assert registry.provider_of("zzz") is None

    def test_builtin_passes_registered(self):
        for name in ("fault_list", "baseline", "scan_analysis",
                     "debug_control", "debug_observe", "memory_analysis"):
            from repro.pipeline import DEFAULT_REGISTRY
            assert name in DEFAULT_REGISTRY


# --------------------------------------------------------------------- #
# dependency resolution
# --------------------------------------------------------------------- #
class TestResolution:
    def test_topological_order(self):
        registry = PassRegistry()
        registry.register(make_pass("c", requires=("b_out",), provides=("c_out",)))
        registry.register(make_pass("a", provides=("a_out",)))
        registry.register(make_pass("b", requires=("a_out",), provides=("b_out",)))
        pipeline = Pipeline(["c", "a", "b"], registry=registry)
        order = pipeline.pass_names
        assert order.index("a") < order.index("b") < order.index("c")

    def test_transitive_providers_pulled_in(self):
        """Selecting only the leaf pass pulls in its whole provider chain."""
        registry = PassRegistry()
        registry.register(make_pass("a", provides=("a_out",)))
        registry.register(make_pass("b", requires=("a_out",), provides=("b_out",)))
        registry.register(make_pass("c", requires=("b_out",), provides=("c_out",)))
        pipeline = Pipeline(["c"], registry=registry)
        assert pipeline.pass_names == ["a", "b", "c"]

    def test_missing_provider_is_an_error(self):
        registry = PassRegistry()
        registry.register(make_pass("lonely", requires=("nothing_makes_this",)))
        with pytest.raises(PipelineError, match="nothing_makes_this"):
            Pipeline(["lonely"], registry=registry)

    def test_cycle_detection(self):
        registry = PassRegistry()
        registry.register(make_pass("x", requires=("y_out",), provides=("x_out",)))
        registry.register(make_pass("y", requires=("x_out",), provides=("y_out",)))
        with pytest.raises(DependencyCycleError, match="x.*y|y.*x"):
            Pipeline(["x", "y"], registry=registry)

    def test_duplicate_artifact_provider_is_an_error(self):
        registry = PassRegistry()
        registry.register(make_pass("p1", provides=("dup",)))
        registry.register(make_pass("p2", provides=("dup",)))
        with pytest.raises(PipelineError, match="dup"):
            Pipeline(["p1", "p2"], registry=registry)

    def test_default_pass_names_honour_flow_config(self):
        config = FlowConfig(run_scan=False, run_memory_map=False)
        names = default_pass_names(config)
        assert "scan_analysis" not in names
        assert "memory_analysis" not in names
        assert "debug_control" in names and "baseline" in names


# --------------------------------------------------------------------- #
# execution & skipping
# --------------------------------------------------------------------- #
class TestExecution:
    def test_memory_pass_skipped_without_memory_map(self, tiny_soc):
        clone = tiny_soc.cpu.clone("no_memmap")
        clone.annotations.pop("memory_map", None)
        pipeline = Pipeline(["fault_list", "baseline", "memory_analysis"])
        result = pipeline.run(clone)
        assert "memory_analysis" in result.skipped
        assert result.report.memory_result is None
        assert OnlineUntestableSource.MEMORY_MAP not in {
            s.source for s in result.report.sources}

    def test_dependents_of_skipped_pass_are_skipped(self):
        registry = PassRegistry()
        registry.register(make_pass("gate", provides=("gate_out",),
                                    when=lambda ctx: False))
        registry.register(make_pass("child", requires=("gate_out",),
                                    provides=("child_out",)))
        pipeline = Pipeline(["gate", "child"], registry=registry)

        from repro.netlist.builder import NetlistBuilder
        b = NetlistBuilder("trivial")
        b.buf(b.add_input("a"), output=b.add_output("y"))
        result = pipeline.run(b.build())
        assert "gate" in result.skipped
        assert "child" in result.skipped

    def test_pass_must_provide_declared_artifacts(self):
        registry = PassRegistry()
        registry.register(FunctionPass(
            lambda ctx: PassResult(),  # provides nothing
            name="liar", provides=("promised",)))
        pipeline = Pipeline(["liar"], registry=registry)
        from repro.netlist.builder import NetlistBuilder
        b = NetlistBuilder("trivial")
        b.buf(b.add_input("a"), output=b.add_output("y"))
        with pytest.raises(PipelineError, match="promised"):
            pipeline.run(b.build())

    def test_events_and_runtimes_recorded(self, tiny_soc):
        result = Pipeline().run(tiny_soc)
        completed = {e.pass_name for e in result.events
                     if e.status == "completed"}
        assert completed == set(result.order)
        assert set(result.runtimes) == completed
        assert all(runtime >= 0 for runtime in result.runtimes.values())


# --------------------------------------------------------------------- #
# caching
# --------------------------------------------------------------------- #
class TestCaching:
    def test_second_run_replays_from_cache(self, tiny_soc):
        cache = ArtifactCache()
        pipeline = Pipeline(cache=cache)
        first = pipeline.run(tiny_soc)
        second = pipeline.run(tiny_soc)
        assert not first.cached
        assert set(second.cached) == set(second.order)
        assert (second.report.online_untestable
                == first.report.online_untestable)
        assert [s.count for s in second.report.sources] == [
            s.count for s in first.report.sources]

    def test_structural_clone_hits_the_cache(self, tiny_soc):
        assert (netlist_signature(tiny_soc.cpu)
                == netlist_signature(tiny_soc.cpu.clone(tiny_soc.cpu.name)))

    def test_tie_changes_the_signature(self, tiny_soc):
        clone = tiny_soc.cpu.clone(tiny_soc.cpu.name)
        some_net = next(iter(clone.nets))
        clone.nets[some_net].tied = 0
        assert netlist_signature(clone) != netlist_signature(tiny_soc.cpu)


# --------------------------------------------------------------------- #
# equivalence of the entry points with the one-shot reference analysis
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def small_legacy_report(small_soc):
    """The reference report of the one-shot flow: a fresh session's serial
    analysis of the paper's default passes."""
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
        result = Pipeline().run(small_soc)
        _assert_reports_equivalent(result.report, small_legacy_report)

    def test_parallel_pipeline_matches_legacy(self, small_soc,
                                              small_legacy_report):
        result = Pipeline(parallel=True).run(small_soc)
        _assert_reports_equivalent(result.report, small_legacy_report)

    def test_analyze_entry_point_matches_legacy(self, small_soc,
                                                small_legacy_report):
        report = Session().analyze(small_soc, parallel=2)
        _assert_reports_equivalent(report, small_legacy_report)

    def test_public_api_exports(self):
        assert set(repro.__all__) >= {
            "Session", "RunOptions", "Pipeline", "AnalysisPass",
            "FlowConfig"}
        assert not {"analyze", "OnlineUntestableFlow"} & set(repro.__all__)
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None
