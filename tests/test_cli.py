"""CLI subcommands (analyze / sweep / report / corpus / backends)."""

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

    def test_unknown_pass_is_reported(self, capsys):
        assert main(["analyze", "tiny", "--passes", "nope"]) == 2
        err = capsys.readouterr().err
        assert "nope" in err and "scan_analysis" in err

    def test_passes_select_sources_and_keep_the_baseline(self, capsys):
        # --passes spells the FlowConfig switches: the foundation steps
        # always run, so Original and Scan keep the full flow's counts.
        code, out = run(capsys, "analyze", "tiny", "--effort", "tie",
                        "--passes", "scan_analysis", "--json")
        assert code == 0
        counts = {row["source"]: row["count"]
                  for row in json.loads(out)["table"]}
        assert counts == {"Original": 341, "Scan": 665, "Debug": 0,
                          "Memory": 0, "TOTAL": 665}


class TestBackendsCommand:
    def test_json_lists_fault_models_and_atpg_backends(self, capsys):
        code, out = run(capsys, "backends", "--json")
        assert code == 0
        document = json.loads(out)
        assert set(document) == {"fault_models", "atpg_backends"}
        assert {entry["name"] for entry in document["fault_models"]} == {
            "stuck_at", "transition"}
        assert sorted(entry["name"] for entry in document["atpg_backends"]
                      ) == ["dalg", "podem"]
        for entry in document["fault_models"] + document["atpg_backends"]:
            assert entry["note"]


class TestSweepCommand:
    def test_sweep_json_and_report_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.json"
        code, out = run(capsys, "sweep", "--base", "tiny",
                        "--axis", "debug=on,off", "--jobs", "2",
                        "--quiet", "--json", "--out", str(out_file))
        assert code == 0
        document = json.loads(out)
        assert len(document["scenarios"]) == 2
        assert "executor" not in document
        assert json.loads(out_file.read_text()) == document

        # The pooled sweep's rows are the in-process sweep's rows.
        code, serial_out = run(capsys, "sweep", "--base", "tiny",
                               "--axis", "debug=on,off", "--quiet", "--json")
        assert code == 0

        def rows(doc):
            return [{k: v for k, v in row.items() if k != "elapsed_seconds"}
                    for row in doc["comparison"]]

        assert rows(document) == rows(json.loads(serial_out))

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

    @pytest.mark.parametrize("axis,message", [
        ("cpu.nope=1", "CpuConfig has no field 'nope'"),
        ("cpu.mult_width=abc", "axis 'cpu.mult_width' expects a value of "
                               "type int, got 'abc'"),
        ("cpu.mult_width=64", "bad value for axis 'cpu.mult_width'"),
        ("static_prune=on,off", "unknown scenario axis 'static_prune'; "
                                "expected effort, fault_model, atpg_backend, "
                                "size, scan, debug, memory_map, insert_scan "
                                "or cpu.<field>"),
    ], ids=["unknown-field", "ill-typed", "invalid", "removed-knob"])
    def test_bad_cpu_axis_exits_2_naming_the_axis(self, capsys, axis,
                                                  message):
        assert main(["sweep", "--base", "tiny", "--axis", axis]) == 2
        assert message in capsys.readouterr().err

    def test_bool_cpu_axis_takes_0_and_1(self, capsys):
        code, out = run(capsys, "sweep", "--base", "tiny", "--axis",
                        "cpu.has_debug=0,1", "--json")
        assert code == 0
        code, named = run(capsys, "sweep", "--base", "tiny", "--axis",
                          "cpu.has_debug=off,on", "--json")

        def rows(text):
            return [{k: v for k, v in row.items()
                     if k not in ("scenario", "elapsed_seconds")}
                    for row in json.loads(text)["comparison"]]

        assert all(row["ok"] for row in rows(out))
        assert rows(out) == rows(named)
        assert main(["sweep", "--base", "tiny", "--axis",
                     "cpu.has_debug=2"]) == 2
        assert "expects a value of type bool" in capsys.readouterr().err

    def test_repeated_axis_name_exits_2(self, capsys):
        # Two flags for one axis would silently keep only the last values.
        assert main(["sweep", "--base", "tiny", "--axis", "debug=on",
                     "--axis", "debug=off"]) == 2
        assert "--axis 'debug' given twice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze", "tiny", "--parallel"],
        ["sweep", "--base", "tiny", "--executor", "thread"],
        ["sweep", "--base", "tiny", "--workers", "2"],
    ], ids=["analyze-parallel", "sweep-executor", "sweep-workers"])
    def test_retired_concurrency_flags_are_rejected(self, capsys, argv):
        # --jobs is the only concurrency flag.
        with pytest.raises(SystemExit):
            main(argv)

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
