"""RunOptions bundle tests: eager normalization, merging, the legacy-keyword
deprecation shim and the Session surface that consumes it.

The acceptance bar for the options redesign: every pre-RunOptions keyword
spelling keeps working (with a once-per-process DeprecationWarning, never
breakage), an explicit ``options=`` bundle wins over legacy spellings, and
bad values fail at the call site with errors that spell the accepted
values.
"""

from __future__ import annotations

import warnings

import pytest

from tests.conftest import build_and_or_circuit
from repro.api import (RunOptions, Session, fold_legacy_kwargs,
                       reset_legacy_keyword_warnings, resolve_effort)
from repro.atpg.engine import AtpgEffort
from repro.atpg.portfolio import ATPG_BACKENDS


@pytest.fixture(autouse=True)
def rearm_warnings():
    """Each test sees the once-per-process warnings fresh."""
    reset_legacy_keyword_warnings()
    yield
    reset_legacy_keyword_warnings()


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
# the deprecation shim
# --------------------------------------------------------------------- #
class TestLegacyKeywordShim:
    def test_legacy_keyword_warns_once_per_process(self):
        with pytest.warns(DeprecationWarning, match="'jobs' is deprecated"):
            fold_legacy_kwargs("Session", jobs=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            options = fold_legacy_kwargs("Session", jobs=4)
        assert options.jobs == 4

    def test_none_values_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            options = fold_legacy_kwargs("Session", jobs=None, effort=None)
        assert options == RunOptions()

    def test_explicit_options_bundle_wins(self):
        options = fold_legacy_kwargs(
            "Session", RunOptions(jobs=8), warn=False, jobs=2, effort="tie")
        assert options.jobs == 8
        assert options.effort is AtpgEffort.TIE

    def test_internal_callers_can_silence(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            fold_legacy_kwargs("Session", warn=False, jobs=2)


# --------------------------------------------------------------------- #
# the Session surface
# --------------------------------------------------------------------- #
class TestSessionSurface:
    def test_every_legacy_session_keyword_still_works(self):
        with pytest.warns(DeprecationWarning):
            session = Session(effort="tie", jobs=2,
                              fault_model="stuck_at",
                              static_prune=True, static_learning=True)
        assert session.effort is AtpgEffort.TIE
        assert session.jobs == 2
        assert session.fault_model == "stuck_at"
        assert session.static_prune is True
        assert session.static_learning is True

    def test_options_bundle_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = Session(options=RunOptions(
                jobs=3, atpg_backend="dalg", atpg_seed=7))
        assert session.jobs == 3
        assert session.atpg_backend == "dalg"
        assert session.atpg_seed == 7

    def test_session_attributes_are_read_only_views(self):
        session = Session(options=RunOptions(jobs=2))
        with pytest.raises(AttributeError):
            session.jobs = 4

    def test_legacy_analyze_keyword_still_works(self):
        session = Session()
        with pytest.warns(DeprecationWarning, match="Session.analyze"):
            report = session.analyze(build_and_or_circuit(), effort="tie")
        assert report is not None

    def test_analyze_rejects_per_call_store(self, tmp_path):
        session = Session()
        with pytest.raises(ValueError, match="session-level"):
            session.analyze(build_and_or_circuit(),
                            options=RunOptions(store=str(tmp_path)))
