"""The golden scenario corpus: loading, axis expansion, diff/update cycle."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api.corpus import (CorpusError, diff_text, load_corpus,
                              run_corpus)
from repro.api.options import RunOptions
from repro.api.session import Session

REPO_CORPUS = Path(__file__).resolve().parent.parent / "benchmarks" / "corpus"


def write_spec(directory: Path, name: str, **spec) -> Path:
    path = directory / f"{name}.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


@pytest.fixture()
def tiny_corpus(tmp_path):
    """A one-entry corpus directory over the tiny core."""
    write_spec(tmp_path, "tiny_full", base="tiny", axes={}, effort="tie")
    return tmp_path


class TestLoading:
    def test_repo_corpus_loads_sorted(self):
        entries = load_corpus(REPO_CORPUS)
        names = [entry.name for entry in entries]
        assert names == sorted(names)
        assert len(entries) >= 6
        assert {"tiny_full", "tiny_nodebug", "tiny_noscan",
                "small_full"} <= set(names)

    def test_every_repo_entry_has_a_committed_golden(self):
        for entry in load_corpus(REPO_CORPUS):
            assert entry.golden_path.is_file(), entry.name

    def test_axes_expand_into_the_config(self):
        by_name = {entry.name: entry for entry in load_corpus(REPO_CORPUS)}
        assert by_name["tiny_nodebug"].build_config().cpu.has_debug is False
        assert by_name["tiny_noscan"].build_config().insert_scan is False
        assert by_name["small_map12"].build_config().cpu.addr_width == 12
        assert by_name["tiny_random"].effort == "random"

    def test_bad_directory_and_bad_spec(self, tmp_path):
        with pytest.raises(CorpusError, match="does not exist"):
            load_corpus(tmp_path / "nope")
        with pytest.raises(CorpusError, match="no \\*\\.json specs"):
            load_corpus(tmp_path)
        write_spec(tmp_path, "broken", base="galactic")
        with pytest.raises(CorpusError, match="'base' must be one of"):
            load_corpus(tmp_path)

    def test_run_keys_are_parsed_and_typos_rejected(self, tmp_path):
        """A spec's run keys go through RunOptions: a bad value and an
        unknown key (here a misspelled fault model) both fail at load
        time, naming the file."""
        path = write_spec(tmp_path, "typo", base="tiny", effort="fulll")
        with pytest.raises(CorpusError, match="unknown ATPG effort") as exc:
            load_corpus(tmp_path)
        assert str(path) in str(exc.value)
        path = write_spec(tmp_path, "typo", base="tiny",
                          **{"fault-model": "transition"})
        with pytest.raises(CorpusError, match="unknown key") as exc:
            load_corpus(tmp_path)
        assert str(path) in str(exc.value)
        write_spec(tmp_path, "typo", base="tiny", fault_model="transition",
                   static_prune=False)
        (entry,) = load_corpus(tmp_path)
        assert entry.fault_model == "transition"
        assert entry.effort == "tie"
        assert entry.options.static_prune is False


class TestRunAndDiff:
    def test_update_then_match_then_diff(self, tiny_corpus):
        session = Session()
        updated = run_corpus(tiny_corpus, update=True, session=session)
        assert [outcome.status for outcome in updated] == ["updated"]
        golden = tiny_corpus / "golden" / "tiny_full.table.txt"
        assert golden.is_file()

        checked = run_corpus(tiny_corpus, session=session)
        assert [outcome.status for outcome in checked] == ["match"]
        assert checked[0].ok

        golden.write_text(golden.read_text().replace("Scan", "Scam"))
        tampered = run_corpus(tiny_corpus, session=session)
        assert [outcome.status for outcome in tampered] == ["diff"]
        assert not tampered[0].ok
        assert "Scam" in diff_text(tampered[0])

    def test_missing_golden_is_reported(self, tiny_corpus):
        outcomes = run_corpus(tiny_corpus)
        assert [outcome.status for outcome in outcomes] == ["missing-golden"]
        assert not outcomes[0].ok

    def test_only_filter_and_unknown_name(self, tiny_corpus):
        run_corpus(tiny_corpus, update=True)
        assert len(run_corpus(tiny_corpus, only=["tiny_full"])) == 1
        with pytest.raises(CorpusError, match="unknown corpus entries"):
            run_corpus(tiny_corpus, only=["missing_entry"])

    def test_sharded_run_matches_the_serial_golden(self, tiny_corpus):
        """The corpus acceptance property in miniature: a --jobs 2 sharded
        run must byte-match a capture produced by the serial path."""
        run_corpus(tiny_corpus, update=True, session=Session())
        outcomes = run_corpus(tiny_corpus, options=RunOptions(jobs=2))
        assert [outcome.status for outcome in outcomes] == ["match"]

    def test_repo_tiny_entries_match_their_goldens(self):
        """Fast subset of the CI corpus job (the full set runs in CI)."""
        outcomes = run_corpus(REPO_CORPUS,
                              only=["tiny_full", "tiny_nodebug"])
        assert all(outcome.status == "match" for outcome in outcomes), [
            (outcome.name, outcome.status) for outcome in outcomes]
