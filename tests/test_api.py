"""Tests of the Session/Design API: defaults, grids, executors, the shim."""

from __future__ import annotations

import warnings

import pytest

import repro
from repro.api import (Design, ProcessExecutor, Scenario, ScenarioGrid,
                       SerialExecutor, Session, SweepReport, ThreadExecutor,
                       resolve_executor)
from repro.atpg.engine import AtpgEffort, resolve_effort
from repro.memory.memory_map import MemoryMap, MemoryRegion
from repro.soc.config import SoCConfig
from repro.soc.soc_builder import build_soc


def tiny_variant_map() -> MemoryMap:
    """A legal alternative mission map for the tiny core (8-bit bus)."""
    return MemoryMap(address_width=8, regions=[
        MemoryRegion("flash", 0, 16),
        MemoryRegion("sram", 192, 16),
    ])


@pytest.fixture(scope="module")
def tiny_session_report():
    session = Session()
    return session, session.analyze("tiny")


# --------------------------------------------------------------------- #
# Session defaults & analyze
# --------------------------------------------------------------------- #
class TestSessionDefaults:
    def test_defaults(self):
        session = Session()
        assert isinstance(session.executor, SerialExecutor)
        assert session.cache.max_entries is not None  # bounded by default
        assert session.passes is None
        assert session.effort is None

    def test_executor_by_name(self):
        assert isinstance(Session(executor="thread").executor, ThreadExecutor)
        assert isinstance(Session(executor="process").executor,
                          ProcessExecutor)
        with pytest.raises(ValueError, match="unknown executor"):
            Session(executor="cluster")

    def test_executor_instance_passthrough(self):
        backend = ThreadExecutor(max_workers=3)
        assert resolve_executor(backend) is backend

    def test_analyze_accepts_many_target_spellings(self, tiny_soc,
                                                   tiny_session_report):
        session, reference = tiny_session_report
        by_soc = session.analyze(tiny_soc)
        by_design = session.analyze(Design.from_soc(tiny_soc))
        assert by_soc.table_rows() == reference.table_rows()
        assert by_design.table_rows() == reference.table_rows()

    def test_analyze_rejects_unknown_target(self):
        with pytest.raises(TypeError, match="analysis target"):
            Session().analyze(42)

    def test_repeat_analysis_replays_from_cache(self, tiny_session_report):
        session, reference = tiny_session_report
        before = session.cache_stats["hits"]
        again = session.analyze("tiny")
        assert session.cache_stats["hits"] > before
        assert again.table_rows() == reference.table_rows()
        assert again.online_untestable == reference.online_untestable

    def test_session_effort_default_applies(self, tiny_session_report):
        session = Session(effort="tie")
        assert session.effort is AtpgEffort.TIE
        report = session.analyze("tiny")
        assert report.table_rows() == tiny_session_report[1].table_rows()


class TestDesign:
    def test_signature_stable_and_content_based(self, tiny_soc):
        one = Design.from_soc(tiny_soc)
        two = Design.from_soc(build_soc(SoCConfig.tiny()))
        assert one.signature == two.signature  # structural clones
        other = Design.coerce(tiny_soc, memory_map=tiny_variant_map())
        assert other.signature != one.signature  # memory map is content

    def test_coerce_preset_name(self):
        design = Design.coerce("tiny")
        assert design.label == "tiny"
        assert design.config is not None
        assert design.rebuild_spec == design.config


# --------------------------------------------------------------------- #
# ScenarioGrid expansion
# --------------------------------------------------------------------- #
class TestScenarioGrid:
    def test_degenerate_single_point(self):
        grid = ScenarioGrid("tiny")
        assert len(grid) == 1
        (scenario,) = grid.scenarios()
        assert scenario.label == "tiny"
        assert scenario.config == SoCConfig.tiny()
        assert scenario.effort is None
        assert scenario.index == 0

    def test_cartesian_expansion_order_and_labels(self):
        grid = (ScenarioGrid("tiny")
                .axis("debug", [True, False])
                .axis("effort", ["tie", "random"]))
        labels = [s.label for s in grid]
        assert labels == [
            "tiny[debug=on,effort=tie]",
            "tiny[debug=on,effort=random]",
            "tiny[debug=off,effort=tie]",
            "tiny[debug=off,effort=random]",
        ]
        assert [s.index for s in grid] == [0, 1, 2, 3]
        assert grid.scenarios()[1].effort is AtpgEffort.RANDOM
        assert not grid.scenarios()[2].config.cpu.has_debug

    def test_config_axes(self):
        base = SoCConfig.tiny()
        assert base.with_axis("scan", False).insert_scan is False
        assert base.with_axis("scan", 2).cpu.scan_chains == 2
        assert base.with_axis("debug", False).cpu.has_debug is False
        assert base.with_axis("size", "small").cpu == SoCConfig.small().cpu
        assert base.with_axis("cpu.mult_width", 4).cpu.mult_width == 4
        custom = tiny_variant_map()
        assert base.with_axis("memory_map", custom).memory_map is custom

    def test_bad_axis_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown scenario axis"):
            ScenarioGrid("tiny").axis("voltage", [1, 2])
        with pytest.raises(ValueError, match="expects a MemoryMap"):
            # e.g. a CLI string leaking through must fail eagerly, not
            # deep inside the analysis of the first scenario.
            ScenarioGrid("tiny").axis("memory_map", ["default"])
        with pytest.raises(ValueError, match="no values"):
            ScenarioGrid("tiny").axis("debug", [])
        with pytest.raises(ValueError, match="unknown ATPG effort"):
            ScenarioGrid("tiny").axis("effort", ["turbo"])

    def test_grid_base_type_checked(self):
        with pytest.raises(TypeError, match="grid base"):
            ScenarioGrid(3.14)


# --------------------------------------------------------------------- #
# sweeps & executors
# --------------------------------------------------------------------- #
def four_variant_grid() -> ScenarioGrid:
    """4 SoC variants of the tiny core; two pairs share a netlist.

    ``memory_map`` does not change the netlist structure, so each
    ``debug`` variant appears with two maps — the sharing that makes
    cross-scenario cache reuse observable.
    """
    return (ScenarioGrid("tiny")
            .axis("debug", [True, False])
            .axis("memory_map", [None, tiny_variant_map()]))


def report_essence(report):
    return (report.table_rows(),
            sorted(str(f) for f in report.online_untestable))


class TestSweep:
    def test_thread_sweep_matches_serial_analyze_with_reuse(self):
        """The acceptance scenario: ≥4 variants, thread backend, reuse."""
        grid = four_variant_grid()
        assert len(grid) == 4

        session = Session(executor="thread")
        sweep = session.sweep(grid)
        assert [r.label for r in sweep] == [s.label for s in grid]
        assert all(r.ok for r in sweep), [r.error for r in sweep]

        # Identical to the deprecated one-shot entry point run serially.
        for scenario, result in zip(grid.scenarios(), sweep.results):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                reference = repro.analyze(build_soc(scenario.config))
            assert report_essence(result.report) == report_essence(reference)

        # The shared cache replayed at least one cross-scenario artifact.
        assert sweep.cache_stats["hits"] >= 1
        assert sweep.executor == "thread"

    def test_executor_equivalence(self):
        grid = four_variant_grid()
        essences = {}
        for backend in ("serial", "thread", "process"):
            sweep = Session().sweep(grid, executor=backend)
            assert all(r.ok for r in sweep), (backend,
                                              [r.error for r in sweep])
            essences[backend] = [report_essence(r.report) for r in sweep]
        assert essences["serial"] == essences["thread"]
        assert essences["serial"] == essences["process"]

    def test_iter_sweep_streams_all_scenarios(self):
        grid = ScenarioGrid("tiny").axis(
            "memory_map", [None, tiny_variant_map()])
        seen = {result.label
                for result in Session().iter_sweep(grid)}
        assert seen == {s.label for s in grid}

    def test_sweep_reports_errors_without_aborting(self):
        grid = ScenarioGrid("tiny")
        sweep = Session().sweep(grid, passes=["no_such_pass"])
        assert len(sweep.results) == 1
        assert not sweep.results[0].ok
        assert "no_such_pass" in sweep.results[0].error
        assert sweep.failed and not sweep.succeeded

    def test_sweep_accepts_scenario_sequence(self):
        scenarios = [Scenario(label="a", config=SoCConfig.tiny()),
                     Scenario(label="b", config=SoCConfig.tiny())]
        sweep = Session().sweep(scenarios)
        assert [r.label for r in sweep] == ["a", "b"]
        with pytest.raises(TypeError, match="sequence of"):
            Session().sweep(["tiny"])

    def test_sweep_report_aggregation_and_serialization(self):
        sweep = Session().sweep(four_variant_grid())
        rows = sweep.comparison_rows()
        assert rows[0]["delta_total"] is None  # the baseline scenario
        for row in rows[1:]:
            assert row["delta_total"] == row["total"] - rows[0]["total"]

        restored = SweepReport.from_json(sweep.to_json())
        assert [r.label for r in restored] == [r.label for r in sweep]
        assert restored.comparison_rows() == rows
        assert restored.to_table() == sweep.to_table()

        csv_text = sweep.to_csv()
        assert csv_text.splitlines()[0].startswith("scenario,")
        assert len(csv_text.splitlines()) == 1 + len(sweep.results)

        assert sweep.result_for(rows[1]["scenario"]).ok
        with pytest.raises(KeyError, match="no scenario"):
            sweep.result_for("nope")


# --------------------------------------------------------------------- #
# the deprecated shim & shared effort parsing
# --------------------------------------------------------------------- #
class TestLegacyShim:
    def test_analyze_warns_and_matches_session(self, tiny_soc,
                                               tiny_session_report):
        with pytest.warns(DeprecationWarning, match="Session"):
            report = repro.analyze(tiny_soc)
        assert report_essence(report) == report_essence(
            tiny_session_report[1])

    def test_shim_still_honours_kwargs(self, tiny_soc):
        with pytest.warns(DeprecationWarning):
            report = repro.analyze(tiny_soc, passes=["scan_analysis"],
                                   effort="tie", parallel=2)
        assert report.source_count(
            repro.faults.categories.OnlineUntestableSource.SCAN) > 0
        assert report.total_faults > 0


class TestResolveEffort:
    def test_shared_parser(self):
        assert resolve_effort(None) is None
        assert resolve_effort(None, AtpgEffort.FULL) is AtpgEffort.FULL
        assert resolve_effort("TIE") is AtpgEffort.TIE
        assert resolve_effort(" random ") is AtpgEffort.RANDOM
        assert resolve_effort(AtpgEffort.FULL) is AtpgEffort.FULL
        with pytest.raises(ValueError, match="unknown ATPG effort"):
            resolve_effort("max")


# --------------------------------------------------------------------- #
# process-backend sweeps (the picklable scenario path)
# --------------------------------------------------------------------- #
class TestProcessSweep:
    def test_four_scenario_grid_matches_serial_with_cache_sanity(self):
        """A 4-scenario grid on the process backend must reproduce the
        serial backend exactly; cache accounting must reflect that worker
        processes never touch the parent session's artifact cache."""
        grid = four_variant_grid()
        assert len(grid) == 4

        serial_session = Session()
        serial = serial_session.sweep(grid)
        assert all(result.ok for result in serial), [
            result.error for result in serial]
        # The serial sweep computes (and caches) in-process.
        assert serial.cache_stats["misses"] > 0

        process_session = Session(executor="process", max_workers=2)
        process = process_session.sweep(grid)
        assert process.executor == "process"
        assert all(result.ok for result in process), [
            result.error for result in process]

        assert [r.label for r in process] == [r.label for r in serial]
        assert [r.design_signature for r in process] == \
            [r.design_signature for r in serial]
        assert [report_essence(r.report) for r in process] == \
            [report_essence(r.report) for r in serial]

        # Workers rebuild designs in their own processes: the parent cache
        # sees no traffic at all from a process sweep.
        assert process.cache_stats == {"hits": 0, "misses": 0,
                                       "evictions": 0}
        assert all(result.elapsed_seconds > 0 for result in process)

    def test_process_sweep_carries_session_sharding_defaults(self):
        """Session-level --jobs defaults must survive the process boundary
        (the effective flow config ships with each job) and leave results
        identical."""
        grid = ScenarioGrid("tiny").axis("debug", [True, False])
        reference = Session().sweep(grid)
        sharded = Session(executor="process", jobs=2).sweep(grid)
        assert all(result.ok for result in sharded), [
            result.error for result in sharded]
        assert [report_essence(r.report) for r in sharded] == \
            [report_essence(r.report) for r in reference]


class TestPerCallJobsPrecedence:
    def test_call_jobs_overrides_session_and_config(self):
        from repro.api import RunOptions
        from repro.core.results import FlowConfig

        session = Session(options=RunOptions(jobs=4))
        # per-call jobs beats the session default
        config = session._effective_flow_config(None, RunOptions(jobs=2))
        assert config.jobs == 2
        # per-call jobs=1 forces a serial run of a sharded flow config
        config = session._effective_flow_config(FlowConfig(jobs=8),
                                                RunOptions(jobs=1))
        assert config.jobs == 1
        # no per-call value: session default fills the serial default only
        assert session._effective_flow_config(None, None).jobs == 4
        assert session._effective_flow_config(FlowConfig(jobs=8),
                                              None).jobs == 8
