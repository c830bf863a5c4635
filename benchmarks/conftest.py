"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper's evaluation
(see EXPERIMENTS.md for the mapping).  The generated SoCs and flow reports
are session-scoped so the expensive objects are built once per benchmark run.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro.soc.config import SoCConfig
from repro.soc.soc_builder import build_soc

#: Config preset the runtime benchmarks target.  The CI benchmark smoke job
#: sets ``REPRO_BENCH_CONFIG=small`` to keep the job fast; the default is
#: the paper's full-size case-study core.
RUNTIME_BENCH_CONFIG = os.environ.get("REPRO_BENCH_CONFIG", "date13")


@pytest.fixture(scope="session")
def bench_session():
    """One Session for the whole benchmark run (serial, shared cache)."""
    return repro.Session()


@pytest.fixture(scope="session")
def date13_soc():
    """The paper's case-study configuration (synthetic e200z0-class core)."""
    return build_soc(SoCConfig.date13())


@pytest.fixture(scope="session")
def runtime_soc(request):
    """Target of the runtime benchmarks — date13 unless overridden via the
    ``REPRO_BENCH_CONFIG`` environment variable (CI smoke uses ``small``)."""
    if RUNTIME_BENCH_CONFIG == "date13":
        # Lazy so a non-date13 smoke run never builds the full-size core.
        return request.getfixturevalue("date13_soc")
    return build_soc(SoCConfig.from_name(RUNTIME_BENCH_CONFIG))


@pytest.fixture(scope="session")
def date13_report(bench_session, date13_soc):
    # The pipeline reproduces the legacy flow's report exactly
    # (first-source attribution is deterministic in the paper's order).
    return bench_session.analyze(date13_soc)


@pytest.fixture(scope="session")
def small_soc():
    return build_soc(SoCConfig.small())


@pytest.fixture(scope="session")
def small_report(bench_session, small_soc):
    return bench_session.analyze(small_soc)


@pytest.fixture(scope="session")
def tiny_soc():
    return build_soc(SoCConfig.tiny())


@pytest.fixture(scope="session")
def tiny_report(bench_session, tiny_soc):
    return bench_session.analyze(tiny_soc)
