"""RunOptions tests: eager normalization, merging, the Session surface
that consumes the bundle, and the single knob schema every other surface
(CLI flags, grid run axes, corpus and service specs, cache keys) derives
from.

Bad values fail at the call site with errors that spell the accepted
values.
"""

from __future__ import annotations

import argparse
import dataclasses
import warnings

import pytest

from tests.conftest import build_and_or_circuit
from repro.api import RunOptions, Session, resolve_effort
from repro.atpg.engine import AtpgEffort


# --------------------------------------------------------------------- #
# normalization
# --------------------------------------------------------------------- #
class TestNormalization:
    def test_fields_normalize_eagerly(self):
        options = RunOptions(effort="FULL", fault_model="Transition ",
                             jobs="4", atpg_backend="dalg")
        assert options.effort is AtpgEffort.FULL
        assert options.fault_model == "transition"
        assert options.jobs == 4
        assert options.atpg_backend == "dalg"
        # jobs goes through the engines' own check, so a bad worker count
        # fails here instead of quietly running serial later.
        for bad in (0, -3):
            with pytest.raises(ValueError, match="jobs must be >= 1"):
                RunOptions(jobs=bad)

    def test_unset_fields_stay_none(self):
        options = RunOptions()
        for name in ("effort", "fault_model", "jobs", "store",
                     "atpg_backend"):
            assert getattr(options, name) is None

    def test_unknown_effort_spells_accepted_values(self):
        with pytest.raises(ValueError) as excinfo:
            RunOptions(effort="heroic")
        message = str(excinfo.value)
        for value in ("tie", "random", "full"):
            assert value in message

    def test_resolve_effort_exported_from_api(self):
        assert resolve_effort("tie") is AtpgEffort.TIE
        assert resolve_effort(None, AtpgEffort.FULL) is AtpgEffort.FULL

    def test_engine_reexport_still_works(self):
        from repro.atpg.engine import resolve_effort as engine_resolve

        assert engine_resolve("random") is AtpgEffort.RANDOM

    def test_unknown_atpg_backend_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown ATPG backend"):
            RunOptions(atpg_backend="fan")

    def test_frozen(self):
        options = RunOptions(jobs=2)
        with pytest.raises(AttributeError):
            options.jobs = 3


# --------------------------------------------------------------------- #
# merging and pickle-boundary reduction
# --------------------------------------------------------------------- #
class TestMerging:
    def test_other_set_fields_win(self):
        base = RunOptions(effort="tie", jobs=2, fault_model="transition")
        merged = base.merged_with(RunOptions(jobs=8, atpg_backend="dalg"))
        assert merged.effort is AtpgEffort.TIE
        assert merged.jobs == 8
        assert merged.fault_model == "transition"
        assert merged.atpg_backend == "dalg"

    def test_merge_with_none_is_identity(self):
        base = RunOptions(jobs=2)
        assert base.merged_with(None) is base

    def test_with_store_spec_reduces_live_store(self, tmp_path):
        from repro.store import resolve_store

        store = resolve_store(str(tmp_path))
        options = RunOptions(store=store, jobs=2)
        spec = options.with_store_spec()
        assert isinstance(spec.store, str)
        assert spec.jobs == 2
        # Strings and None pass through untouched.
        assert RunOptions(store="x").with_store_spec().store == "x"
        assert RunOptions().with_store_spec().store is None


# --------------------------------------------------------------------- #
# the Session surface
# --------------------------------------------------------------------- #
class TestSessionSurface:
    def test_options_bundle_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = Session(options=RunOptions(
                jobs=3, atpg_backend="dalg"))
        assert session.options.jobs == 3
        assert session.options.atpg_backend == "dalg"

    def test_analyze_rejects_per_call_store(self, tmp_path):
        session = Session()
        with pytest.raises(ValueError, match="session-level"):
            session.analyze(build_and_or_circuit(),
                            options=RunOptions(store=str(tmp_path)))


# --------------------------------------------------------------------- #
# the single knob schema
# --------------------------------------------------------------------- #
#: Each subcommand's run flags, pinned literally: deriving the parsers from
#: the RunOptions declarations must not add or drop a single flag.
EXPECTED_RUN_FLAGS = {
    "analyze": {"--effort", "--fault-model", "--jobs", "--store",
                "--atpg-backend"},
    "sweep": {"--fault-model", "--jobs", "--store", "--atpg-backend"},
    "corpus": {"--fault-model", "--jobs", "--store", "--atpg-backend"},
    "submit": {"--effort", "--fault-model"},
}

#: One valid, non-default value per knob.
SAMPLE_VALUES = {
    "effort": "random",
    "fault_model": "transition",
    "jobs": 2,
    "store": "artifact-store",
    "atpg_backend": "dalg",
}

GRID_AXES = {"effort", "fault_model", "atpg_backend"}


def _subcommand_flags():
    from repro.__main__ import _build_parser

    parser = _build_parser()
    (subparsers,) = [action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return {name: set(sub._option_string_actions)
            for name, sub in subparsers.choices.items()}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(
    RunOptions)])
def test_every_surface_derives_from_the_field(field):
    from repro.api import ScenarioGrid
    from repro.service.jobs import JobManager

    assert set(SAMPLE_VALUES) == {f.name for f in dataclasses.fields(
        RunOptions)}
    flag = "--" + field.replace("_", "-")

    # CLI: exactly today's flag set per subcommand.
    flags = _subcommand_flags()
    for command, expected in EXPECTED_RUN_FLAGS.items():
        assert (flag in flags[command]) == (flag in expected), command

    # Service: an analyze spec accepts every per-call knob; the store is
    # session-level and is rejected like any unknown key.
    spec = {"design": "tiny", field: SAMPLE_VALUES[field]}
    if field == "store":
        with pytest.raises(ValueError, match="unknown key"):
            JobManager._parse_spec("analyze", spec)
    else:
        options, _ = JobManager._parse_spec("analyze", spec)
        expected = RunOptions(**{field: SAMPLE_VALUES[field]})
        assert getattr(options, field) == getattr(expected, field)

    # Grid: an axis iff declared one.
    grid = ScenarioGrid("tiny")
    if field in GRID_AXES:
        grid.axis(field, [SAMPLE_VALUES[field]])
        (scenario,) = grid.scenarios()
        assert getattr(scenario.options, field) is not None
    else:
        with pytest.raises(ValueError, match="unknown scenario axis"):
            grid.axis(field, [SAMPLE_VALUES[field]])


def test_config_key_is_pinned():
    """Cache keys are built from the resolved options byte-for-byte as the
    FlowConfig-carried knobs built them, so existing on-disk stores stay
    warm."""
    from repro.api import Session
    from repro.pipeline import step_keys

    design = Session().design("tiny")

    def key(**knobs):
        # The memory step keys on every configuration facet.
        return step_keys(design.netlist, memory_map=design.memory_map,
                         options=RunOptions(**knobs))["memory_analysis"][1]

    memmap = "memmap=w8[flash:0:32;sram:128:16];faults="
    assert key() == (
        "model=stuck_at;effort=TIE;tie_out=1;tie_in=1;" + memmap
        + ";static=prune1:learn1;atpg=podem:engine")
    # FULL effort always learns; the fragment keeps its old bytes.
    assert key(effort="full") == (
        "model=stuck_at;effort=FULL;tie_out=1;tie_in=1;" + memmap
        + ";static=prune1:learn1;atpg=podem:engine")
    assert key(fault_model="transition", atpg_backend="dalg") == (
        "model=transition;effort=TIE;tie_out=1;tie_in=1;" + memmap
        + ";static=prune1:learn1;atpg=dalg:engine")


def test_closed_seams_are_gone():
    """Fault models and ATPG backends are fixed tables, a FaultList holds
    faults only and FULL effort always learns: no registration hook,
    verdict ledger or learning knob is left to reach."""
    import repro
    import repro.atpg
    import repro.core
    import repro.faults
    import repro.utils
    from repro.atpg.engine import StructuralUntestabilityEngine
    from repro.core.results import OnlineUntestableReport
    from repro.faults.faultlist import FaultList
    from repro.faults.models import FaultModel
    from repro.pipeline.cache import ArtifactCache

    deleted = {"Registry", "register_fault_model", "register_atpg_backend",
               "get_fault_model", "AtpgBackend", "AtpgRun", "Stopwatch"}
    for package in (repro, repro.atpg, repro.core, repro.faults,
                    repro.utils):
        assert not deleted & set(package.__all__), package.__name__
        assert not [name for name in deleted if hasattr(package, name)]
    for owner, names in (
            (FaultList, ("classify", "classify_many", "get_class",
                         "with_class", "prune", "restrict_to_sites",
                         "difference", "class_counts", "coverage",
                         "group_by_prefix", "to_lines", "from_lines",
                         "summary", "add")),
            (FaultModel, ("owns",)),
            (StructuralUntestabilityEngine, ("classify_fault_list",)),
            (OnlineUntestableReport, ("apply_to_fault_list",)),
            (ArtifactCache, ("get",))):
        assert not [name for name in names if hasattr(owner, name)], owner
    assert [f.name for f in dataclasses.fields(RunOptions)] == [
        "effort", "fault_model", "jobs", "store", "atpg_backend"]
