"""CLI subcommands (analyze / sweep / report / corpus)."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestAnalyzeCommand:
    def test_explicit_subcommand_json(self, capsys):
        code, out = run(capsys, "analyze", "tiny", "--json")
        assert code == 0
        document = json.loads(out)
        assert document["config"] == "tiny"
        assert document["netlist"] == "tiny_core"
        assert document["total_online_untestable"] > 0
        assert [row["source"] for row in document["table"]] == [
            "Original", "Scan", "Debug", "Memory", "TOTAL"]

    def test_list_passes(self, capsys):
        code, out = run(capsys, "analyze", "--list-passes")
        assert code == 0
        assert "scan_analysis" in out

    def test_unknown_pass_is_reported(self, capsys):
        assert main(["analyze", "tiny", "--passes", "nope"]) == 2


class TestSweepCommand:
    def test_sweep_json_and_report_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.json"
        code, out = run(capsys, "sweep", "--base", "tiny",
                        "--axis", "debug=on,off", "--executor", "thread",
                        "--quiet", "--json", "--out", str(out_file))
        assert code == 0
        document = json.loads(out)
        assert len(document["scenarios"]) == 2
        assert document["executor"] == "thread"
        assert json.loads(out_file.read_text()) == document

        code, rendered = run(capsys, "report", str(out_file))
        assert code == 0
        assert "tiny[debug=on]" in rendered
        assert "tiny[debug=off]" in rendered

        code, csv_text = run(capsys, "report", str(out_file), "--csv")
        assert code == 0
        assert csv_text.splitlines()[0].startswith("scenario,")
        assert len(csv_text.splitlines()) == 3

    def test_bad_axis_spec(self, capsys):
        assert main(["sweep", "--axis", "debug"]) == 2

    def test_report_missing_file(self, capsys):
        assert main(["report", "/nonexistent/sweep.json"]) == 2


class TestShardingFlags:
    def test_analyze_jobs_matches_serial_table(self, capsys):
        code, serial_out = run(capsys, "analyze", "tiny", "--json")
        assert code == 0
        code, sharded_out = run(capsys, "analyze", "tiny", "--jobs", "2",
                                "--json")
        assert code == 0
        serial = json.loads(serial_out)
        sharded = json.loads(sharded_out)
        assert sharded["table"] == serial["table"]
        assert sharded["total_online_untestable"] == \
            serial["total_online_untestable"]

    def test_bad_backend_rejected(self, capsys):
        # --jobs is the only parallel knob: the retired --backend flag and
        # a worker count below 1 both fail at argument parsing.
        with pytest.raises(SystemExit):
            main(["analyze", "tiny", "--jobs", "2", "--backend", "process"])
        with pytest.raises(SystemExit):
            main(["analyze", "tiny", "--jobs", "0"])
        assert "jobs must be >= 1" in capsys.readouterr().err


class TestCorpusCommand:
    @pytest.fixture()
    def tiny_corpus(self, tmp_path):
        spec = {"base": "tiny", "axes": {}, "effort": "tie"}
        (tmp_path / "tiny_full.json").write_text(json.dumps(spec),
                                                 encoding="utf-8")
        return tmp_path

    def test_update_check_and_diff_cycle(self, capsys, tiny_corpus):
        code, out = run(capsys, "corpus", "--dir", str(tiny_corpus),
                        "--update", "--quiet")
        assert code == 0
        assert "1 entries updated, 0 failures" in out

        code, out = run(capsys, "corpus", "--dir", str(tiny_corpus),
                        "--quiet")
        assert code == 0
        assert "0 failures" in out

        golden = tiny_corpus / "golden" / "tiny_full.table.txt"
        golden.write_text(golden.read_text().replace("TOTAL", "TOTAS"))
        code, out = run(capsys, "corpus", "--dir", str(tiny_corpus),
                        "--quiet")
        assert code == 1
        assert "1 failures" in out

    def test_missing_golden_fails(self, capsys, tiny_corpus):
        code, out = run(capsys, "corpus", "--dir", str(tiny_corpus),
                        "--quiet")
        assert code == 1

    def test_sharded_corpus_matches_serial_golden(self, capsys, tiny_corpus):
        assert main(["corpus", "--dir", str(tiny_corpus), "--update",
                     "--quiet"]) == 0
        capsys.readouterr()  # drain the update run's summary line
        code, out = run(capsys, "corpus", "--dir", str(tiny_corpus),
                        "--jobs", "2", "--quiet",
                        "--json")
        assert code == 0
        document = json.loads(out)
        assert [entry["status"] for entry in document] == ["match"]

    def test_bad_directory_reported(self, capsys):
        assert main(["corpus", "--dir", "/nonexistent/corpus"]) == 2

    @pytest.mark.parametrize("spec", [{"effort": "fulll"},
                                      {"fault-model": "transition"}])
    def test_bad_spec_exits_2_naming_the_file(self, capsys, tmp_path, spec):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"base": "tiny", **spec}),
                        encoding="utf-8")
        assert main(["corpus", "--dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "Traceback" not in err
