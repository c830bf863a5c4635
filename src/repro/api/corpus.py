"""The golden scenario corpus: named SoC scenarios with pinned Table I.

A corpus directory holds one JSON spec per scenario plus a ``golden/``
subdirectory of committed Table I captures::

    benchmarks/corpus/
        tiny_full.json            {"base": "tiny", "axes": {...}, ...}
        ...
        golden/
            tiny_full.table.txt   the expected rendered Table I, byte-exact

Each spec names a base configuration preset, an ordered mapping of scenario
axes (the :meth:`repro.soc.config.SoCConfig.with_axis` vocabulary — size,
scan, debug, ``cpu.<field>``, ...), an optional description, and any
per-call run knob of :class:`~repro.api.RunOptions` — typically the ATPG
effort (default tie) and the fault model (``"fault_model": "transition"``
— default stuck-at), so the corpus pins Table I per model.  Any other key
is rejected.  :func:`run_corpus`
builds every scenario, runs the full identification flow and byte-compares
the rendered Table I against the golden capture; with ``update=True`` it
rewrites the captures instead (the intentional-refresh workflow).

Because pooled execution is verdict-identical by design, the corpus is the
end-to-end regression net for :mod:`repro.simulation.sharded`: CI runs it
serially *and* with ``--jobs 2`` under both pool start methods and fails
on any diff.  ``python -m repro corpus`` is the command-line entry point.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.api.options import (DEFAULT_RUN_OPTIONS, RunOptions,
                               options_from_spec)
from repro.faults.models import resolve_fault_model
from repro.soc.config import SoCConfig

#: Default corpus location, relative to the repository root.
DEFAULT_CORPUS_DIR = Path("benchmarks") / "corpus"

#: Suffix of a golden capture file inside ``<corpus>/golden/``.
GOLDEN_SUFFIX = ".table.txt"

#: The spec keys that are not run knobs.
ENTRY_KEYS = ("base", "axes", "description")


class CorpusError(ValueError):
    """A corpus spec is malformed or names unknown configuration."""


@dataclass(frozen=True)
class CorpusEntry:
    """One scenario of the golden corpus."""

    name: str
    base: str
    axes: Tuple[Tuple[str, object], ...]
    #: The entry's run knobs over the defaults (effort and fault model
    #: always set).
    options: RunOptions
    description: str
    path: Path

    @property
    def effort(self) -> str:
        return self.options.effort.value

    @property
    def fault_model(self) -> str:
        return self.options.fault_model

    @property
    def golden_path(self) -> Path:
        return self.path.parent / "golden" / f"{self.name}{GOLDEN_SUFFIX}"

    def build_config(self) -> SoCConfig:
        """Expand base preset + axes into the scenario's SoCConfig."""
        config = SoCConfig.from_name(self.base)
        for axis, value in self.axes:
            config = config.with_axis(axis, value)
        return config

    def label(self) -> str:
        parts = [f"base={self.base}"]
        parts.extend(f"{axis}={value}" for axis, value in self.axes)
        parts.append(f"effort={self.effort}")
        if self.fault_model != resolve_fault_model(None).name:
            parts.append(f"fault_model={self.fault_model}")
        return ",".join(parts)


@dataclass
class CorpusOutcome:
    """Result of checking (or refreshing) one corpus entry."""

    name: str
    status: str           # "match" | "diff" | "missing-golden" | "updated"
    elapsed_seconds: float = 0.0
    rendered: str = ""
    golden: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status in ("match", "updated")


def _parse_entry(path: Path) -> CorpusEntry:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CorpusError(f"cannot read corpus spec {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CorpusError(f"corpus spec {path} must be a JSON object")
    base = data.get("base")
    if not isinstance(base, str) or base not in SoCConfig.named_configs():
        known = ", ".join(sorted(SoCConfig.named_configs()))
        raise CorpusError(
            f"corpus spec {path}: 'base' must be one of: {known}")
    axes = data.get("axes", {})
    if not isinstance(axes, dict):
        raise CorpusError(f"corpus spec {path}: 'axes' must be an object")
    try:
        options = options_from_spec(data, extra_keys=ENTRY_KEYS,
                                    what=f"corpus spec {path}")
    except ValueError as exc:
        raise CorpusError(str(exc)) from None
    defaults = RunOptions(effort=DEFAULT_RUN_OPTIONS.effort,
                          fault_model=DEFAULT_RUN_OPTIONS.fault_model)
    return CorpusEntry(
        name=path.stem,
        base=base,
        axes=tuple(axes.items()),
        options=defaults.merged_with(options),
        description=str(data.get("description", "")),
        path=path,
    )


def load_corpus(directory: Union[str, Path] = DEFAULT_CORPUS_DIR
                ) -> List[CorpusEntry]:
    """Load every ``*.json`` spec of a corpus directory, sorted by name."""
    directory = Path(directory)
    if not directory.is_dir():
        raise CorpusError(f"corpus directory {directory} does not exist")
    entries = [_parse_entry(path)
               for path in sorted(directory.glob("*.json"))]
    if not entries:
        raise CorpusError(f"corpus directory {directory} has no *.json specs")
    return entries


def render_entry(entry: CorpusEntry, session=None) -> str:
    """Run the identification flow for one entry; rendered Table I + '\\n'."""
    from repro.api.session import Session

    session = session if session is not None else Session()
    report = session.analyze(entry.build_config(), options=entry.options)
    return report.to_table() + "\n"


def run_corpus(directory: Union[str, Path] = DEFAULT_CORPUS_DIR, *,
               session=None,
               options: Optional[RunOptions] = None,
               update: bool = False,
               only: Optional[Sequence[str]] = None,
               fault_model: Optional[str] = None) -> List[CorpusOutcome]:
    """Run (or refresh) the corpus; one outcome per entry, sorted by name.

    ``options`` are the session's run knobs for every entry (ignored when
    an explicit ``session`` is given); each entry's own spec keys win over
    them.  None of them may move a single byte of any capture: ``jobs``
    runs the analyses on the worker pool; ``static_prune`` toggles the
    static pre-filter (and, unless set itself, ``static_learning`` with
    it) — the goldens are pinned at tie effort, where the static layer
    never runs; ``store`` attaches a durable artifact store
    (:mod:`repro.store`) whose warm artifacts replay across corpus runs;
    ``atpg_backend`` / ``atpg_seed`` select the ATPG portfolio backend,
    whose verdicts are backend- and seed-independent by contract.
    ``fault_model`` restricts the run to the entries pinned under that
    model (a filter, never an override: each entry's golden capture
    belongs to its declared model).
    """
    from repro.api.session import Session

    entries = load_corpus(directory)
    if only:
        # Validate the requested names against the *unfiltered* corpus so a
        # real entry pinned under another model is not reported as unknown.
        wanted = set(only)
        unknown = wanted - {entry.name for entry in entries}
        if unknown:
            raise CorpusError(
                f"unknown corpus entries: {', '.join(sorted(unknown))}")
        entries = [entry for entry in entries if entry.name in wanted]
    if fault_model is not None:
        wanted_model = resolve_fault_model(fault_model).name
        dropped = [entry.name for entry in entries
                   if entry.fault_model != wanted_model]
        entries = [entry for entry in entries
                   if entry.fault_model == wanted_model]
        if not entries:
            detail = (f" (selected entries pinned under other models: "
                      f"{', '.join(dropped)})" if dropped else "")
            raise CorpusError(
                f"no corpus entries use fault model {wanted_model!r}{detail}")

    if session is None:
        options = options if options is not None else RunOptions()
        if options.static_learning is None:
            options = replace(options, static_learning=options.static_prune)
        session = Session(options=options)

    outcomes: List[CorpusOutcome] = []
    for entry in entries:
        started = time.perf_counter()
        rendered = render_entry(entry, session)
        elapsed = time.perf_counter() - started
        golden_path = entry.golden_path
        if update:
            golden_path.parent.mkdir(parents=True, exist_ok=True)
            golden_path.write_text(rendered, encoding="utf-8")
            outcomes.append(CorpusOutcome(entry.name, "updated", elapsed,
                                          rendered, rendered))
            continue
        if not golden_path.is_file():
            outcomes.append(CorpusOutcome(entry.name, "missing-golden",
                                          elapsed, rendered, None))
            continue
        golden = golden_path.read_text(encoding="utf-8")
        status = "match" if rendered == golden else "diff"
        outcomes.append(CorpusOutcome(entry.name, status, elapsed,
                                      rendered, golden))
    return outcomes


def diff_text(outcome: CorpusOutcome) -> str:
    """A unified diff of golden vs rendered for a failing outcome."""
    import difflib

    golden = (outcome.golden or "").splitlines(keepends=True)
    rendered = outcome.rendered.splitlines(keepends=True)
    return "".join(difflib.unified_diff(
        golden, rendered,
        fromfile=f"golden/{outcome.name}{GOLDEN_SUFFIX}",
        tofile=f"rendered/{outcome.name}", lineterm="\n"))
