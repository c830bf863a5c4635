"""The benchmark's span instrumentation still finds every call it wraps.

``perfbench/spans.py`` wraps named functions and methods of the program
(``FaultSimulator.run``, ``ParallelPatternSimulator.run_windows``, ...).
A change that deletes or renames one of them breaks the benchmark run;
this test makes the same break fail the test suite.  It only reads
``perfbench/``: the module is loaded by path and every wrapper it installs
is removed again.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, path)


def test_every_span_target_installs_and_uninstalls():
    spans = _load_spans()
    targets = [(module, path) for module, path, _name, _hook
               in spans._TARGETS]
    assert targets
    uninstall = spans.install(spans.Tracer())
    try:
        wrapped = {target: _current(*target) for target in targets}
    finally:
        uninstall()
    for target in targets:
        original = _current(*target)
        assert wrapped[target] is not original, target
        assert getattr(wrapped[target], "__wrapped__", None) is original, \
            target
