"""Self-tests of the benchmark itself (not collected by the repo's pytest run).

    python3 perfbench/selftest.py

Covers the percentile rule, self-time arithmetic on synthetic nested
spans, that one seed always gives the same inputs, that BENCHMARK.json
and the code name the same metrics, and that a corrupted reference fails
its check and turns ``error_ratio`` above 0 in a real run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import spans  # noqa: E402

sys.path.insert(1, str(common.SRC))


def _span(tracer, span_id, name, start, end, parent=None, phase=0):
    tracer.spans.append({"id": span_id, "name": name, "parent": parent,
                         "workload": "w", "iteration": phase, "tid": 1,
                         "start": start, "end": end, "args": {}})


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(common.tail_percentile(list(range(100)))[0], 90)
        self.assertEqual(common.tail_percentile(list(range(99)))[0], 50)
        self.assertEqual(common.tail_percentile(list(range(1000)))[0], 99)
        self.assertEqual(common.tail_percentile(list(range(10000)))[0], 99.9)
        self.assertEqual(common.tail_percentile(list(range(19))), (None, None))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(common.percentile(values, 90), 90)
        self.assertEqual(common.percentile(values, 50), 50)
        self.assertEqual(common.tail_percentile(values), (90, 90))


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        tracer = spans.Tracer("w")
        _span(tracer, 1, "api.analyze", 0.0, 10.0)
        _span(tracer, 2, "atpg.random", 1.0, 4.0, parent=1)
        _span(tracer, 3, "atpg.tie", 3.0, 6.0, parent=1)  # overlaps 2
        _span(tracer, 4, "simulation.detect", 2.0, 3.0, parent=2)
        own = spans.self_times(tracer.spans)
        self.assertAlmostEqual(own[1], 5.0)  # 10 - union[1, 6]
        self.assertAlmostEqual(own[2], 2.0)
        self.assertAlmostEqual(own[3], 3.0)
        self.assertAlmostEqual(own[4], 1.0)

    def test_layer_metrics_amortise_setup_over_iterations(self):
        tracer = spans.Tracer("w")
        _span(tracer, 1, "analysis.build", 0.0, 2.0, phase="setup")
        _span(tracer, 2, "atpg.podem", 2.0, 3.0, phase=0)
        _span(tracer, 3, "atpg.podem", 3.0, 6.0, phase=1)
        _span(tracer, 4, "atpg.podem", 6.0, 9.0, phase="untraced")
        tracer.phase = 0
        tracer.add("atpg.podem_calls")
        tracer.phase = 1
        tracer.add("atpg.podem_calls")
        tracer.add("atpg.podem_aborts")
        metrics = spans.layer_metrics(tracer, [0, 1], {"error_ratio": 0.5})
        self.assertAlmostEqual(metrics["analysis.build_s"]["value"], 1.0)
        self.assertAlmostEqual(metrics["atpg.podem_s"]["value"], 2.0)
        self.assertAlmostEqual(metrics["atpg.podem_ms_per_call"]["value"],
                               2000.0)
        self.assertAlmostEqual(metrics["atpg.podem_abort_ratio"]["value"],
                               0.5)
        self.assertEqual(metrics["sbst.grade_s"]["value"], 0.0)
        self.assertEqual(metrics["error_ratio"]["value"], 0.5)
        self.assertEqual(len(metrics), len(spans.PER_LAYER))

    def test_child_spans_merge_with_fresh_ids(self):
        child = spans.Tracer("w")
        with child.span("api.analyze"):
            with child.span("atpg.tie"):
                pass
        parent = spans.Tracer("w")
        with parent.span("soc.build"):
            pass
        parent.merge_state(json.loads(json.dumps(child.export_state())),
                           phase=0, pid=7)
        ids = [s["id"] for s in parent.spans]
        self.assertEqual(len(ids), len(set(ids)))
        tie = next(s for s in parent.spans if s["name"] == "atpg.tie")
        analyze = next(s for s in parent.spans if s["name"] == "api.analyze")
        self.assertEqual(tie["parent"], analyze["id"])
        self.assertEqual(tie["iteration"], 0)
        events = spans.chrome_trace(parent)["traceEvents"]
        self.assertEqual({e["ph"] for e in events}, {"X"})


class SeededInputs(unittest.TestCase):
    def test_atpg_sample(self):
        reference = common.load_json(common.REFS / "atpg_tiny.json")
        strata = common.atpg_strata(reference)
        first = common.atpg_sample(11, 0, strata)
        self.assertEqual(first, common.atpg_sample(11, 0, strata))
        self.assertNotEqual(first, common.atpg_sample(12, 0, strata))
        self.assertNotEqual(first, common.atpg_sample(11, 1, strata))
        self.assertEqual(len(set(first)), common.ATPG_SAMPLE)
        classes = reference["classes"].split()
        drawn: dict = {}
        for index in first:
            drawn[classes[index]] = drawn.get(classes[index], 0) + 1
        quotas = common.atpg_quotas({c: len(s) for c, s in strata.items()})
        self.assertEqual(drawn, {c: n for c, n in quotas.items() if n})

    def test_atpg_quotas_follow_population_shares(self):
        counts = {"DT": 77, "UU": 20, "AU": 3}
        self.assertEqual(common.atpg_quotas(counts, 10),
                         {"DT": 8, "UU": 2, "AU": 0})
        self.assertEqual(common.atpg_quotas(counts, 100),
                         {"DT": 77, "UU": 20, "AU": 3})

    def test_service_request_order(self):
        self.assertEqual(common.service_plan(5), common.service_plan(5))
        self.assertNotEqual(common.service_plan(5), common.service_plan(6))
        rounds = [common.service_warm_round(5, r) for r in range(4)]
        self.assertEqual(rounds, [common.service_warm_round(5, r)
                                  for r in range(4)])
        for order in rounds:
            self.assertEqual(sorted(order),
                             list(range(len(common.SERVICE_SPECS))))

    def test_sbst_suite(self):
        from repro.sbst import generate_sbst_suite
        from repro.soc.config import CpuConfig

        def words(seed):
            return [p.words for p in generate_sbst_suite(CpuConfig.date13(),
                                                         seed=seed)]
        self.assertEqual(words(3), words(3))
        self.assertNotEqual(words(3), words(4))


class Contract(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        import run

        config = json.loads((common.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in config["per_layer"]],
                         list(spans.PER_LAYER))
        self.assertEqual([(m["name"], m["unit"])
                          for m in config["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([w["name"] for w in config["workloads"]],
                         list(common.WORKLOADS))


class CorruptedReference(unittest.TestCase):
    def test_pure_checks_reject_corruption(self):
        table = (common.REFS / "service"
                 / "small-random-stuck_at.txt").read_text()
        self.assertTrue(common.check_text(table, table))
        self.assertFalse(common.check_text(table, table.replace("2", "3", 1)))
        ref = common.load_json(common.REFS / "sbst_date13.json")[
            str(common.DEFAULT_SEED)]
        self.assertTrue(common.check_sbst(dict(ref), ref))
        self.assertFalse(common.check_sbst(dict(ref, detected=0), ref))
        reference = {"classes": "DT UU AU UT"}
        self.assertEqual(common.verdict_flips(
            {0: "DT", 1: "UU", 2: "DT", 3: "UU"}, reference), [])
        self.assertEqual(common.verdict_flips(
            {0: "UU", 1: "DT", 2: "AU", 3: "DT"}, reference), [0, 1, 3])

    def test_run_with_corrupted_reference_reports_errors(self):
        """A copy of the benchmark whose ATPG reference swaps DT and UU
        must fail every iteration, exit 1 and report error_ratio > 0."""
        sandbox = common.OUT / "selftest"
        shutil.rmtree(sandbox, ignore_errors=True)
        try:
            bench = sandbox / "perfbench"
            shutil.copytree(common.BENCH_DIR, bench,
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            (sandbox / "src").symlink_to(common.SRC)
            shutil.copy(common.ROOT / "BENCHMARK.json", sandbox)
            path = bench / "refs" / "atpg_tiny.json"
            reference = json.loads(path.read_text())
            swap = {"DT": "UU", "UU": "DT"}
            reference["classes"] = " ".join(
                swap.get(c, c) for c in reference["classes"].split())
            path.write_text(json.dumps(reference))
            for trace in ("0", "1"):
                proc = subprocess.run(
                    [sys.executable, str(bench / "run.py"),
                     "--workload", "atpg_full_tiny", "--seconds", "0.1",
                     "--trace", trace],
                    stdout=subprocess.PIPE, text=True, cwd=str(sandbox),
                    timeout=170)
                self.assertEqual(proc.returncode, 1)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                if trace == "1":
                    self.assertGreater(
                        result["metrics"]["error_ratio"]["value"], 0)
        finally:
            shutil.rmtree(sandbox, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
