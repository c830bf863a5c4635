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
from repro.atpg.portfolio import ATPG_BACKENDS


# --------------------------------------------------------------------- #
# normalization
# --------------------------------------------------------------------- #
class TestNormalization:
    def test_fields_normalize_eagerly(self):
        options = RunOptions(effort="FULL", fault_model="transition",
                             jobs="4", static_prune=1, static_learning=0,
                             atpg_backend=ATPG_BACKENDS["dalg"],
                             atpg_seed="7")
        assert options.effort is AtpgEffort.FULL
        assert options.fault_model == "transition"
        assert options.jobs == 4
        assert options.static_prune is True
        assert options.static_learning is False
        assert options.atpg_backend == "dalg"
        assert options.atpg_seed == 7
        # jobs goes through the engines' own check, so a bad worker count
        # fails here instead of quietly running serial later.
        for bad in (0, -3):
            with pytest.raises(ValueError, match="jobs must be >= 1"):
                RunOptions(jobs=bad)

    def test_unset_fields_stay_none(self):
        options = RunOptions()
        for name in ("effort", "fault_model", "jobs", "static_prune",
                     "static_learning", "store", "atpg_backend",
                     "atpg_seed"):
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
        base = RunOptions(effort="tie", jobs=2, atpg_seed=1)
        merged = base.merged_with(RunOptions(jobs=8, atpg_backend="dalg"))
        assert merged.effort is AtpgEffort.TIE
        assert merged.jobs == 8
        assert merged.atpg_seed == 1
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
                jobs=3, atpg_backend="dalg", atpg_seed=7))
        assert session.options.jobs == 3
        assert session.options.atpg_backend == "dalg"
        assert session.options.atpg_seed == 7

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
    "analyze": {"--effort", "--fault-model", "--jobs", "--static-prune",
                "--store", "--atpg-backend", "--atpg-seed"},
    "sweep": {"--fault-model", "--jobs", "--static-prune", "--store",
              "--atpg-backend", "--atpg-seed"},
    "corpus": {"--fault-model", "--jobs", "--static-prune", "--store",
               "--atpg-backend", "--atpg-seed"},
    "submit": {"--effort", "--fault-model", "--static-prune"},
}

#: One valid, non-default value per knob.
SAMPLE_VALUES = {
    "effort": "random",
    "fault_model": "transition",
    "jobs": 2,
    "static_prune": False,
    "static_learning": False,
    "store": "artifact-store",
    "atpg_backend": "dalg",
    "atpg_seed": 7,
}

GRID_AXES = {"effort", "fault_model", "static_prune", "atpg_backend"}


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
    from repro.pipeline.context import PipelineContext

    design = Session().design("tiny")

    def key(**knobs):
        return PipelineContext(design.netlist, memory_map=design.memory_map,
                               options=RunOptions(**knobs)).config_key

    memmap = "memmap=w8[flash:0:32;sram:128:16];faults="
    assert key() == (
        "model=stuck_at;effort=TIE;tie_out=1;tie_in=1;" + memmap
        + ";static=prune1:learn1;atpg=podem:engine")
    assert key(effort="full", static_prune=False) == (
        "model=stuck_at;effort=FULL;tie_out=1;tie_in=1;" + memmap
        + ";static=prune0:learn1;atpg=podem:engine")
    assert key(fault_model="transition", atpg_backend="podem-restart",
               atpg_seed=7) == (
        "model=transition;effort=TIE;tie_out=1;tie_in=1;" + memmap
        + ";static=prune1:learn1;atpg=podem-restart:7")
