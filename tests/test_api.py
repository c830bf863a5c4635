"""Tests of the Session/Design API: defaults, grids, sweeps, options."""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

import repro
import repro.api.design
import repro.api.session
from repro.api import (Design, RunOptions, Scenario, ScenarioGrid, Session,
                       SweepReport)
from repro.atpg.engine import AtpgEffort, resolve_effort
from repro.core.results import FlowConfig
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
        assert session.cache.max_entries is not None  # bounded by default
        assert session.flow_config is None
        assert session.options == RunOptions()

    def test_no_second_concurrency_knob(self):
        # jobs (a RunOptions field) is the only one.
        for knob in ("executor", "max_workers", "parallel_passes"):
            with pytest.raises(TypeError):
                Session(**{knob: 2})
        with pytest.raises(TypeError):
            Session().analyze("tiny", parallel=2)
        with pytest.raises(TypeError):
            Session().sweep(ScenarioGrid("tiny"), executor="thread")

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
        session = Session(options=RunOptions(effort="tie"))
        assert session.options.effort is AtpgEffort.TIE
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


@pytest.fixture()
def builds(monkeypatch):
    """Every ``build_soc`` call a :class:`Design` factory makes."""
    calls = []
    real = repro.api.design.build_soc

    def counting(config):
        calls.append(config)
        return real(config)

    monkeypatch.setattr(repro.api.design, "build_soc", counting)
    return calls


def timeless(document):
    """A report document minus its wall-clock fields."""
    if isinstance(document, dict):
        return {key: timeless(value) for key, value in document.items()
                if key not in ("runtimes", "runtime_seconds")}
    if isinstance(document, list):
        return [timeless(value) for value in document]
    return document


class TestDesignMemo:
    def test_preset_twice_is_one_shared_design(self, builds):
        session = Session()
        first = session.design("tiny")
        assert session.design("tiny") is first
        assert first.label == "tiny"
        assert len(builds) == 1

    def test_equal_configs_share_by_content(self, builds):
        # MemoryMap compares by identity, so the configs are unequal.
        assert SoCConfig.date13() != SoCConfig.date13()
        session = Session()
        first = session.design(SoCConfig.date13())
        assert session.design(SoCConfig.date13()) is first
        assert len(builds) == 1

    def test_other_label_is_a_view_of_the_same_netlist(self, builds):
        session = Session()
        first = session.design("tiny")
        other = session.design(SoCConfig.tiny(), label="variant")
        assert other.label == "variant"
        assert other.netlist is first.netlist
        assert other.signature == first.signature
        assert len(builds) == 1

    def test_explicit_targets_and_overrides_bypass_the_memo(self, builds,
                                                            tiny_soc):
        session = Session()
        memoised = session.design("tiny")
        assert len(builds) == 1
        overridden = session.design("tiny", memory_map=tiny_variant_map())
        assert len(builds) == 2
        assert overridden.netlist is not memoised.netlist
        assert session.design("tiny", memory_map=tiny_variant_map()
                              ).netlist is not overridden.netlist
        assert len(builds) == 3
        design = Design.from_soc(tiny_soc)
        assert session.design(design) is design
        assert session.design(tiny_soc).netlist is tiny_soc.cpu
        assert session.design(tiny_soc.cpu).netlist is tiny_soc.cpu
        assert len(builds) == 3
        assert session.design("tiny") is memoised

    def test_sessions_never_share_a_design(self, builds):
        one, two = Session().design("tiny"), Session().design("tiny")
        assert one.netlist is not two.netlist
        assert len(builds) == 2

    def test_lru_evicts_past_its_bound(self, builds):
        bound = repro.api.session.DESIGN_MEMO_ENTRIES

        def config(k):
            return SoCConfig(cpu=SoCConfig.tiny().cpu, memory_map=MemoryMap(
                address_width=8, regions=[
                    MemoryRegion("flash", 0, 16),
                    MemoryRegion("sram", 128 + 16 * k, 16)]))

        session = Session()
        designs = [session.design(config(k)) for k in range(bound + 1)]
        assert len(builds) == bound + 1
        # The newest `bound` stay; the oldest was evicted and rebuilds.
        assert session.design(config(bound)) is designs[bound]
        assert session.design(config(1)) is designs[1]
        assert len(builds) == bound + 1
        assert session.design(config(0)) is not designs[0]
        assert len(builds) == bound + 2

    def test_threads_asking_for_one_config_share_it(self):
        # More threads than cores and a short switch interval, so racing
        # first builds happen; every thread must end on the one stored
        # design and an equal report.
        session = Session(options=RunOptions(effort="tie"))
        results = [None] * 4
        barrier = threading.Barrier(len(results))

        def work(slot):
            barrier.wait()
            design = session.design(SoCConfig.tiny(), label="tiny")
            results[slot] = (design, session.analyze(design))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(slot,))
                       for slot in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stored = session.design("tiny")
        assert all(design is stored for design, _ in results)
        documents = [timeless(report.to_json_dict()) for _, report in results]
        assert all(document == documents[0] for document in documents)

    def test_warm_repeat_analyze_builds_nothing(self, builds):
        session = Session()
        cold = session.analyze("tiny")
        assert len(builds) == 1
        warm = session.analyze("tiny")
        assert len(builds) == 1
        assert timeless(warm.to_json_dict()) == timeless(cold.to_json_dict())
        assert warm.to_table() == cold.to_table()

    def test_in_process_run_axis_sweep_builds_once(self, builds):
        grid = (ScenarioGrid("tiny")
                .axis("effort", ["tie", "random"])
                .axis("fault_model", ["stuck_at", "transition"]))
        sweep = Session().sweep(grid)
        assert all(r.ok for r in sweep), [r.error for r in sweep]
        assert len(sweep.results) == 4
        assert len(builds) == 1
        assert len({r.design_signature for r in sweep}) == 1


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
        assert scenario.options == RunOptions()
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
        assert grid.scenarios()[1].options.effort is AtpgEffort.RANDOM
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
        # The error names every axis a grid takes, run axes included.
        with pytest.raises(ValueError) as info:
            ScenarioGrid("tiny").axis("static_prune", ["on", "off"])
        assert str(info.value) == (
            "unknown scenario axis 'static_prune'; expected effort, "
            "fault_model, atpg_backend, size, scan, debug, memory_map, "
            "insert_scan or cpu.<field>")
        with pytest.raises(ValueError, match="unknown ATPG effort"):
            ScenarioGrid("tiny").axis("effort", ["turbo"])

    def test_grid_base_type_checked(self):
        with pytest.raises(TypeError, match="grid base"):
            ScenarioGrid(3.14)


# --------------------------------------------------------------------- #
# sweeps
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


def comparison(sweep):
    """The comparison rows minus the wall-clock column."""
    return [{k: v for k, v in row.items() if k != "elapsed_seconds"}
            for row in sweep.comparison_rows()]


#: A session whose sweeps run one scenario per task on two pool workers.
POOLED = RunOptions(jobs=2)


class TestSweep:
    def test_sweep_matches_serial_analyze_with_reuse(self):
        """The acceptance scenario: ≥4 variants in-process, with reuse."""
        grid = four_variant_grid()
        assert len(grid) == 4

        session = Session()
        sweep = session.sweep(grid)
        assert [r.label for r in sweep] == [s.label for s in grid]
        assert all(r.ok for r in sweep), [r.error for r in sweep]

        # Identical to a fresh one-shot session analysis run serially.
        for scenario, result in zip(grid.scenarios(), sweep.results):
            reference = Session().analyze(build_soc(scenario.config),
                                          options=scenario.options)
            assert report_essence(result.report) == report_essence(reference)

        # The shared cache replayed at least one cross-scenario artifact.
        assert sweep.cache_stats["hits"] >= 1

    def test_executor_equivalence(self):
        """In-process and pooled execution of one grid agree exactly,
        whether jobs comes from the session or from the call."""
        grid = four_variant_grid()
        serial = Session().sweep(grid)
        for pooled in (Session(options=POOLED).sweep(grid),
                       Session().sweep(grid, options=POOLED)):
            assert all(r.ok for r in pooled), [r.error for r in pooled]
            assert [report_essence(r.report) for r in pooled] == \
                [report_essence(r.report) for r in serial]
            assert comparison(pooled) == comparison(serial)

    def test_iter_sweep_streams_all_scenarios(self):
        grid = ScenarioGrid("tiny").axis(
            "memory_map", [None, tiny_variant_map()])
        seen = {result.label
                for result in Session().iter_sweep(grid)}
        assert seen == {s.label for s in grid}

    def test_sweep_reports_errors_without_aborting(self):
        scenarios = [Scenario(label="bad", config="no_such_config"),
                     Scenario(label="good", config=SoCConfig.tiny())]
        sweep = Session().sweep(scenarios)
        assert len(sweep.results) == 2
        assert not sweep.results[0].ok
        assert "no_such_config" in sweep.results[0].error
        assert sweep.results[1].ok
        assert sweep.failed and sweep.succeeded

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
# shared effort parsing
# --------------------------------------------------------------------- #
class TestResolveEffort:
    def test_shared_parser(self):
        # One parser, defined next to AtpgEffort and re-exported by the
        # API layer and the package root.
        assert repro.api.resolve_effort is resolve_effort
        assert repro.resolve_effort is resolve_effort
        assert resolve_effort(None) is None
        assert resolve_effort(None, AtpgEffort.FULL) is AtpgEffort.FULL
        assert resolve_effort("TIE") is AtpgEffort.TIE
        assert resolve_effort(" random ") is AtpgEffort.RANDOM
        assert resolve_effort(AtpgEffort.FULL) is AtpgEffort.FULL
        with pytest.raises(ValueError, match="unknown ATPG effort"):
            resolve_effort("max")


# --------------------------------------------------------------------- #
# pooled sweeps: one scenario per task in the worker processes of the
# warm pool (the picklable scenario path)
# --------------------------------------------------------------------- #
class TestProcessSweep:
    def test_four_scenario_grid_matches_serial_with_cache_sanity(self):
        """A 4-scenario grid on the worker pool must reproduce the serial
        sweep exactly; cache accounting must reflect that worker processes
        never touch the parent session's artifact cache."""
        grid = four_variant_grid()
        assert len(grid) == 4

        serial_session = Session()
        serial = serial_session.sweep(grid)
        assert all(result.ok for result in serial), [
            result.error for result in serial]
        # The serial sweep computes (and caches) in-process.
        assert serial.cache_stats["misses"] > 0

        process_session = Session(options=POOLED)
        process = process_session.sweep(grid)
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
        """Session-level defaults — run options and the flow switches that
        select the sources — must survive the process boundary (they ship
        in the installed sweep job) and leave results identical."""
        grid = ScenarioGrid("tiny").axis("debug", [True, False])
        defaults = dict(flow_config=FlowConfig(run_debug_observe=False,
                                               run_memory_map=False))
        reference = Session(options=RunOptions(fault_model="transition"),
                            **defaults).sweep(grid)
        sharded = Session(options=RunOptions(jobs=2,
                                             fault_model="transition"),
                          **defaults).sweep(grid)
        assert all(result.ok for result in sharded), [
            result.error for result in sharded]
        assert [r.report.fault_model for r in sharded] == [
            "transition", "transition"]
        assert [report_essence(r.report) for r in sharded] == \
            [report_essence(r.report) for r in reference]
        assert comparison(sharded) == comparison(reference)


@pytest.fixture(scope="class")
def release_pools():
    """Close the registry pools these tests start (spawn ones included)."""
    from repro.runtime import shutdown_pools

    yield
    shutdown_pools()


def _broken_scenario(label: str) -> Scenario:
    """A scenario whose design fails to build (an empty debug register)."""
    cpu = replace(SoCConfig.tiny().cpu, debug_shift_length=0)
    return Scenario(label=label, config=SoCConfig(cpu=cpu))


@pytest.mark.usefixtures("release_pools")
class TestPoolSweep:
    """Pooled sweeps against an in-process reference, fault paths too."""

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_start_methods_match_serial(self, method, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_START_METHOD", method)
        grid = four_variant_grid()
        serial = Session().sweep(grid)
        session = Session(options=POOLED)
        pooled = session.sweep(grid)
        assert session.worker_pool().start_method == method
        assert comparison(pooled) == comparison(serial)
        assert [report_essence(r.report) for r in pooled] == \
            [report_essence(r.report) for r in serial]

    def test_failing_scenario_is_an_error_result(self):
        scenarios = [Scenario(label="a", config=SoCConfig.tiny()),
                     _broken_scenario("broken"),
                     Scenario(label="c",
                              config=SoCConfig.tiny().with_axis("debug",
                                                                False))]
        serial = Session().sweep(scenarios)
        pooled = Session(options=POOLED).sweep(scenarios)
        assert [r.ok for r in pooled] == [True, False, True]
        assert pooled.results[1].error == serial.results[1].error
        assert "AND tree" in pooled.results[1].error
        assert comparison(pooled) == comparison(serial)

    def test_on_result_abort_then_next_sweep_succeeds(self):
        grid = four_variant_grid()
        session = Session(options=POOLED)

        def cancel(result):
            raise RuntimeError("cancelled by the caller")

        with pytest.raises(RuntimeError, match="cancelled"):
            session.sweep(grid, on_result=cancel)
        again = session.sweep(grid)
        assert comparison(again) == comparison(Session().sweep(grid))

    def test_kill_9_mid_sweep_keeps_rows(self):
        from repro.runtime import shutdown_pools

        # Fresh workers with cold session caches: when the first result
        # arrives, worker 0 still has a scenario in flight.
        shutdown_pools()
        grid = four_variant_grid()
        session = Session(options=POOLED)
        pool = session.worker_pool()
        restarts = pool.stats["worker_restarts"]
        killed = []

        def kill_a_worker(result):
            if not killed:
                killed.append(pool.worker_pids()[0])
                os.kill(killed[0], signal.SIGKILL)

        pooled = session.sweep(grid, on_result=kill_a_worker)
        assert killed and pool.stats["worker_restarts"] > restarts
        assert comparison(pooled) == comparison(Session().sweep(grid))

    def test_jobs_analyze_between_pooled_sweep_results(self):
        """A jobs > 1 analyze run from inside a pooled sweep's loop shares
        the workers with it: the sweep still yields every scenario and
        both match their serial references."""
        from repro.faults.faultlist import generate_fault_list

        grid = four_variant_grid()
        design = Design.coerce("tiny")
        faults = list(generate_fault_list(design.netlist))[::40]
        random = RunOptions(effort="random")
        session = Session(options=POOLED)
        pool = session.worker_pool()
        tasks = pool.stats["tasks"]
        results, nested = [], []
        for result in session.iter_sweep(grid):
            results.append(result)
            if not nested:
                nested.append(Session(options=POOLED).analyze(
                    design, faults=faults, options=random))
        # The nested analysis sharded its faults on the same pool.
        assert pool.stats["tasks"] - tasks > len(grid)
        results.sort(key=lambda r: r.index)
        serial = Session().sweep(grid)
        assert [r.label for r in results] == [r.label for r in serial]
        assert [report_essence(r.report) for r in results] == \
            [report_essence(r.report) for r in serial]
        reference = Session().analyze(design, faults=faults, options=random)
        assert report_essence(nested[0]) == report_essence(reference)

    def test_sweep_job_lives_as_long_as_the_sweep(self):
        session = Session(options=POOLED)
        pool = session.worker_pool()

        def sweep_jobs():
            return [key for key in pool._objects if key.startswith("sweep:")]

        during = []
        session.sweep(four_variant_grid(),
                      on_result=lambda result: during.append(sweep_jobs()))
        assert len(during[0]) == 1 and sweep_jobs() == []
        # Fewer scenarios than workers: in-process, the pool unused.
        tasks = pool.stats["tasks"]
        single = session.sweep(ScenarioGrid("tiny"))
        assert single.results[0].ok and single.cache_stats["misses"] > 0
        assert pool.stats["tasks"] == tasks

    def test_store_is_warm_after_a_pooled_sweep(self, tmp_path):
        grid = four_variant_grid()
        store = tmp_path / "store"
        Session(options=RunOptions(store=str(store), jobs=2)).sweep(grid)
        warm = Session(options=RunOptions(store=str(store))).sweep(grid)
        assert warm.cache_stats["store_misses"] == 0
        assert warm.cache_stats["store_hits"] > 0


def test_schema_1_document_with_executor_still_loads():
    """A sweep document written while sweeps still had an executor knob
    (captured before it went) loads and re-renders unchanged."""
    path = Path(__file__).parent / "data" / "sweep_schema1_executor.json"
    document = json.loads(path.read_text(encoding="utf-8"))
    assert document["executor"] == "thread"
    report = SweepReport.from_json_dict(document)
    assert report.grid_name == "schema1_pin"
    assert [r.label for r in report] == ["pin_core[memory_map=default]"]
    assert report.results[0].ok
    assert report.comparison_rows() == document["comparison"]
    assert "pin_core[memory_map=default]" in report.to_table()
    assert "executor" not in report.to_json_dict()


class TestPerCallJobsPrecedence:
    def test_call_jobs_overrides_session_and_config(self, monkeypatch):
        from repro.pipeline import flow
        from tests.conftest import build_and_or_circuit

        seen = []

        def baseline_spy(netlist, faults, **engine):
            seen.append(engine["jobs"])
            return set()

        monkeypatch.setattr(flow, "compute_baseline_untestable",
                            baseline_spy)
        netlist = build_and_or_circuit()
        # Only the foundation steps run, so nothing starts a worker pool.
        foundations = FlowConfig(run_scan=False, run_debug_control=False,
                                 run_debug_observe=False,
                                 run_memory_map=False)

        def jobs_of(session, options=None):
            session.cache.clear()  # the baseline key is blind to jobs
            session.analyze(netlist, config=foundations, options=options)
            return seen[-1]

        session = Session(options=RunOptions(jobs=4))
        # per-call jobs beats the session default, jobs=1 included
        assert jobs_of(session, RunOptions(jobs=2)) == 2
        assert jobs_of(session, RunOptions(jobs=1)) == 1
        # no per-call value: the session default applies ...
        assert jobs_of(session) == 4
        assert jobs_of(session, RunOptions(effort="tie")) == 4
        # ... and without one either, the serial default
        assert jobs_of(Session()) == 1
