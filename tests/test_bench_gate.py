"""The bench-smoke gate (``benchmarks/check_bench_regression.py``) checks
every stage it is asked to watch."""

from __future__ import annotations

import json

from benchmarks.check_bench_regression import main


def _capture(path, stages):
    path.write_text(json.dumps({
        "config": "small",
        "stages": {name: {"seconds": seconds}
                   for name, seconds in stages.items()}}))
    return str(path)


def test_a_watched_stage_missing_from_the_baseline_fails(tmp_path, capsys):
    current = _capture(tmp_path / "current.json", {"a": 1.0, "b": 1.0})
    baseline = _capture(tmp_path / "baseline.json", {"a": 1.0})
    assert main([current, baseline, "--stages", "a,b"]) == 2
    assert "'b' missing from" in capsys.readouterr().err


def test_watched_stages_within_the_ratio_pass(tmp_path):
    current = _capture(tmp_path / "current.json", {"a": 1.0, "b": 2.0})
    baseline = _capture(tmp_path / "baseline.json", {"a": 1.0, "b": 1.0})
    assert main([current, baseline, "--stages", "a,b",
                 "--max-ratio", "2.5"]) == 0
    assert main([current, baseline, "--stages", "a,b",
                 "--max-ratio", "1.5"]) == 1
