"""The three workloads, each a closed loop driven from one process.

``sbst_grade_date13`` and ``atpg_full_tiny`` run their work in a child
process of ``run.py`` (``--child NAME``) that speaks a
two-line protocol: it prints a JSON ``ready`` line once set-up is done,
then reads ``go`` (measure and report one JSON result line) or ``exit``.
Set-up time is the harness's view of spawn-to-ready, so it includes the
interpreter start and the imports.  ``service_mixed`` drives a
``python -m repro serve`` subprocess as its one client.

Each ``run_*`` function returns the raw samples of one benchmark run; the
caller in ``run.py`` turns them into metrics.  The untraced iterations
time only the program; a traced run (``trace=True``) alternates untraced
and traced iterations (``service_mixed``: an untraced then a traced
pass), so the tracing overhead is measured in the same run.
"""

from __future__ import annotations

import json
import os
import resource
import selectors
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import common
import spans

RUN_PY = common.BENCH_DIR / "run.py"
#: Longest wait for a child's ready line or result before giving up.
CHILD_TIMEOUT = 150.0


def child_env() -> Dict[str, str]:
    """Children import ``repro`` from the checkout and keep temp files in it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(common.SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                             else []))
    tmp = common.OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def _readline(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT) -> str:
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(timeout):
            raise TimeoutError(f"no output from pid {proc.pid} in {timeout}s")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"pid {proc.pid} exited (code {proc.wait()}) "
                           "before reporting")
    return line


def _stop(proc: subprocess.Popen) -> None:
    """Make sure a child has ended, and reap it."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    if proc.stdin is not None:
        proc.stdin.close()


class Child:
    """A ``run.py --child`` process: set-up on spawn, work on ``go``."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(RUN_PY), "--child", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=str(common.ROOT))
        try:
            json.loads(_readline(self.proc))  # the ready line
        except BaseException:
            _stop(self.proc)
            raise
        self.setup_s = time.perf_counter() - started

    def finish(self, command: str = "go") -> Optional[Dict[str, Any]]:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
            result = (json.loads(_readline(self.proc)) if command == "go"
                      else None)
            self.proc.wait(timeout=CHILD_TIMEOUT)
            if self.proc.returncode != 0:
                raise RuntimeError(f"child exited with {self.proc.returncode}")
            return result
        finally:
            _stop(self.proc)


def _setup_only(workload: str, seed: int, seconds: float,
                count: int) -> List[float]:
    """Set-up samples from children that exit as soon as they are ready."""
    samples = []
    for _ in range(count):
        child = Child(workload, seed, seconds, False)
        child.finish("exit")
        samples.append(child.setup_s)
    return samples


# --------------------------------------------------------------------- #
# child side
# --------------------------------------------------------------------- #
def _rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """High-water RSS in MB (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def _keep_going(began: float, durations: List[float], seconds: float,
                minimum: int = 1) -> bool:
    """Start another iteration while fewer than ``minimum`` ran, or while
    one more of median length still ends within ``seconds``."""
    return len(durations) < minimum or (
        time.perf_counter() - began + common.median(durations) <= seconds)


def _timed_loop(seconds: float, step: Callable[[int], Any]) -> List[tuple]:
    """Call ``step(i)`` while another call fits in ``seconds``.

    Returns ``(i, seconds, output)`` per call; only the call is timed.
    """
    samples: List[tuple] = []
    began = time.perf_counter()
    while _keep_going(began, [s for _, s, _ in samples], seconds):
        index = len(samples)
        started = time.perf_counter()
        output = step(index)
        samples.append((index, time.perf_counter() - started, output))
    return samples


def _traced(tracer: Optional[spans.Tracer], call: Callable[[], Any]) -> Any:
    """``call()``, with the layer wrappers installed when tracing."""
    if tracer is None:
        return call()
    uninstall = spans.install(tracer)
    try:
        return call()
    finally:
        uninstall()


def _measure(seconds: float, step: Callable[[int], Any],
             tracer: Optional[spans.Tracer]) -> Dict[str, List[tuple]]:
    """Untraced iterations; in a traced run untraced and traced ones
    alternate, so that slow drift of the host hits both alike."""
    if tracer is None:
        return {"untraced": _timed_loop(seconds, step), "traced": []}
    runs: Dict[str, List[tuple]] = {"untraced": [], "traced": []}
    began = time.perf_counter()
    index = 0
    while _keep_going(began, [s for kind in runs.values()
                              for _, s, _ in kind], seconds, minimum=2):
        traced = len(runs["traced"]) < len(runs["untraced"])
        tracer.phase = index if traced else "untraced"
        started = time.perf_counter()
        output = _traced(tracer if traced else None, lambda: step(index))
        runs["traced" if traced else "untraced"].append(
            (index, time.perf_counter() - started, output))
        index += 1
    return runs


def _kernel() -> Dict[str, Any]:
    from repro.simulation.kernels import kernel_info

    return kernel_info()


def child_sbst(args, tracer: Optional[spans.Tracer], wait_go) -> Dict:
    """SBST capture and jobs=2 grading with OLFU pruning on date13."""
    import repro.faults.faultlist as faultlist
    from repro.api import RunOptions, Session
    from repro.runtime import WorkerPool
    from repro.sbst import FaultGrader, ToggleMonitor, generate_sbst_suite

    class CapturingGrader(FaultGrader):
        """Keeps the detected set for the off-clock cross-check."""

        def grade(self, patterns, faults=None):
            self.detected = super().grade(patterns, faults)
            return self.detected

    pool_keys = ("tasks", "install_hits", "worker_restarts")

    def record_pool(before: Dict[str, Any]) -> None:
        if tracer is None:
            return
        after = pool.stats
        tracer.add("runtime.spawn_s", after["cold_start_seconds"]
                   - before["cold_start_seconds"])
        tracer.add("runtime.install_s", after["setup_seconds"]
                   - before["setup_seconds"])
        for key in pool_keys:
            tracer.add(f"runtime.{key}", after[key] - before[key])

    def setup():
        session = Session()
        design = session.design("date13")
        olfu = session.analyze(
            design, options=RunOptions(effort="tie")).online_untestable
        faults = faultlist.generate_fault_list(design.netlist).faults()
        pool = WorkerPool(common.SBST_JOBS)
        before = dict(pool.stats)
        # The pool keys its installed job by netlist, fault list and
        # patterns, so grading the seed's own captured patterns once
        # spawns the workers and installs the very job every measured
        # iteration then finds warm.
        suite = generate_sbst_suite(design.config.cpu, seed=args.seed)
        patterns = ToggleMonitor(design.netlist).run_suite(suite)
        FaultGrader(design.netlist, jobs=common.SBST_JOBS,
                    pool=pool).grade(patterns, faults)
        return design, olfu, faults, pool, before

    design, olfu, faults, pool, before = _traced(tracer, setup)
    try:
        if tracer is not None:
            tracer.phase = "setup"
            record_pool(before)
        if not wait_go():
            return {}

        def step(index: int):
            before = dict(pool.stats)
            suite = generate_sbst_suite(design.config.cpu, seed=args.seed)
            patterns = ToggleMonitor(design.netlist).run_suite(suite)
            grader = CapturingGrader(design.netlist, jobs=common.SBST_JOBS,
                                     pool=pool)
            comparison = grader.compare_with_pruning(patterns, olfu, faults)
            record_pool(before)
            return patterns, grader.detected, comparison

        runs = _measure(args.seconds, step, tracer)
        outputs = []
        for _, _, (patterns, detected, comparison) in (
                runs["untraced"] + runs["traced"]):
            outputs.append({
                "total_faults": comparison.total_faults,
                "detected": comparison.detected,
                "pruned": comparison.pruned,
                "detected_after_pruning": comparison.detected_after_pruning,
                "coverage_before": comparison.coverage_before,
                "coverage_after": comparison.coverage_after,
                "detected_sha256": common.digest(str(f) for f in detected),
            })
    finally:
        pool.close()
    # The peak is read before the off-clock check, which only some seeds
    # run; the pool workers count once they have been reaped.
    rss_mb = _rss_mb() + _rss_mb(resource.RUSAGE_CHILDREN)
    serial_sha = None
    if args.seed not in common.SHIPPED_SEEDS:
        # No recorded reference: cross-check the jobs=2 detected set
        # against a serial grade of the same input, off the clock.
        serial = FaultGrader(design.netlist).grade(patterns, faults)
        serial_sha = common.digest(str(f) for f in serial)
    return {"untraced": [s for _, s, _ in runs["untraced"]],
            "traced": [s for _, s, _ in runs["traced"]],
            "traced_phases": [i for i, _, _ in runs["traced"]],
            "outputs": outputs, "serial_sha256": serial_sha,
            "cycles": len(patterns), "rss_mb": rss_mb, "kernel": _kernel()}


def child_atpg(args, tracer: Optional[spans.Tracer], wait_go) -> Dict:
    """FULL-effort classification of seeded fault samples of tiny, a fresh
    sample per iteration, so a run's median spans many samples."""
    import repro.analysis as analysis
    import repro.faults.faultlist as faultlist
    from repro.api import Session
    from repro.atpg import AtpgEffort, StructuralUntestabilityEngine

    reference = common.load_json(common.REFS / "atpg_tiny.json")

    def setup():
        # Module-qualified calls, so that a traced set-up sees them.
        netlist = Session().design("tiny").netlist
        faults = faultlist.generate_fault_list(netlist).faults()
        analysis.get_static_analysis(netlist)
        return netlist, faults

    netlist, faults = _traced(tracer, setup)
    universe_ok = (common.universe_digest(str(f) for f in faults)
                   == reference["universe_sha256"])
    strata = common.atpg_strata(reference)
    if not wait_go():
        return {}

    def step(index: int):
        indices = common.atpg_sample(args.seed, index, strata)
        report = StructuralUntestabilityEngine(
            netlist, effort=AtpgEffort.FULL).classify(
                [faults[i] for i in indices])
        return indices, report

    runs = _measure(args.seconds, step, tracer)
    outputs = []
    for _, _, (indices, report) in runs["untraced"] + runs["traced"]:
        classes = {i: report.classifications[faults[i]].value
                   if faults[i] in report.classifications else "NC"
                   for i in indices}
        outputs.append({
            "flips": (common.verdict_flips(classes, reference)
                      if universe_ok else indices),
            "aborted": sum(1 for c in classes.values() if c == "AU"),
            "sample": len(indices),
        })
    return {"untraced": [s for _, s, _ in runs["untraced"]],
            "traced": [s for _, s, _ in runs["traced"]],
            "traced_phases": [i for i, _, _ in runs["traced"]],
            "outputs": outputs, "rss_mb": _rss_mb(), "kernel": _kernel()}


CHILDREN = {"sbst_grade_date13": child_sbst, "atpg_full_tiny": child_atpg}


def child_main(workload: str, args) -> int:
    """Entry point of ``run.py --child``: set up, report ready, obey."""
    tracer = spans.Tracer(workload) if args.trace else None

    def wait_go() -> bool:
        print(json.dumps({"ready": True}), flush=True)
        return sys.stdin.readline().strip() == "go"

    result = CHILDREN[workload](args, tracer, wait_go)
    if result:
        if tracer is not None:
            result["trace"] = tracer.export_state()
        print(json.dumps(result), flush=True)
    return 0


# --------------------------------------------------------------------- #
# harness side
# --------------------------------------------------------------------- #
def _merge_child_trace(tracer: Optional[spans.Tracer], result: Dict,
                       pid: int, phase: Any = None) -> None:
    if tracer is not None and result.get("trace"):
        tracer.merge_state(result["trace"], phase=phase, pid=pid)


def _run_child_workload(workload: str, seed: int, seconds: float,
                        tracer: Optional[spans.Tracer],
                        setup_reps: int = common.SETUP_REPS) -> tuple:
    setups = ([] if tracer is not None else
              _setup_only(workload, seed, seconds, setup_reps - 1))
    child = Child(workload, seed, seconds, tracer is not None)
    setups.append(child.setup_s)
    result = child.finish("go")
    _merge_child_trace(tracer, result, child.proc.pid)
    return setups, result


def run_sbst(seed: int, seconds: float,
             tracer: Optional[spans.Tracer]) -> Dict[str, Any]:
    # Its set-up grades the whole suite once (15-19 s), more than the
    # run budget allows to repeat, so a run sets it up once.
    setups, result = _run_child_workload("sbst_grade_date13", seed, seconds,
                                         tracer, setup_reps=1)
    refs = common.load_json(common.REFS / "sbst_date13.json")
    failed = 0
    for output in result["outputs"]:
        if seed in common.SHIPPED_SEEDS:
            ok = common.check_sbst(output, refs[str(seed)])
        else:
            ok = output["detected_sha256"] == result["serial_sha256"]
        failed += not ok
    first = result["outputs"][0]
    return {"wall": result["untraced"], "traced": result["traced"],
            "traced_phases": result["traced_phases"], "setup": setups,
            "attempted": len(result["outputs"]), "failed": failed,
            "peak_rss_mb": result["rss_mb"], "kernel": result["kernel"],
            "extra": {"coverage_before": first["coverage_before"],
                      "coverage_after": first["coverage_after"],
                      "cycles": result["cycles"]}}


def run_atpg(seed: int, seconds: float,
             tracer: Optional[spans.Tracer]) -> Dict[str, Any]:
    setups, result = _run_child_workload("atpg_full_tiny", seed, seconds,
                                         tracer)
    outputs = result["outputs"]
    aborted = (sum(o["aborted"] for o in outputs)
               / sum(o["sample"] for o in outputs))
    return {"wall": result["untraced"], "traced": result["traced"],
            "traced_phases": result["traced_phases"], "setup": setups,
            "attempted": len(outputs),
            "failed": sum(1 for o in outputs if o["flips"]),
            "peak_rss_mb": result["rss_mb"], "kernel": result["kernel"],
            "extra": {"aborted_ratio": aborted}}


class Server:
    """A ``repro serve`` subprocess on a kernel-chosen port."""

    def __init__(self, store: Path) -> None:
        from repro.service import ServiceClient

        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(store)],
            stdout=subprocess.PIPE, text=True, env=child_env(),
            cwd=str(common.ROOT))
        try:
            line = _readline(self.proc)
            if "listening on" not in line:
                raise RuntimeError(f"unexpected service banner {line!r}")
            port = int(line.rsplit(":", 1)[1])
        except BaseException:
            _stop(self.proc)
            raise
        self.setup_s = time.perf_counter() - started
        self.client = ServiceClient("127.0.0.1", port, timeout=120.0,
                                    client_id="perfbench")

    def stop(self) -> Dict[str, Any]:
        """Drain the service and wait for it to exit; returns its stats."""
        try:
            stats = self.client.stats()
            self.client.shutdown(drain=True)
            self.proc.wait(timeout=60)
            return stats
        finally:
            _stop(self.proc)


def _request(client, spec: Dict[str, str], tracer: Optional[spans.Tracer]
             ) -> tuple:
    """submit -> stream to ``done`` -> result; returns (seconds, response).

    ``ServiceClient.wait`` polls every 200 ms, which would time the poll
    interval, so the request follows the job's event stream instead.
    """
    def timed(name: str, call: Callable[[], Any]) -> Any:
        if tracer is None:
            return call()
        started = time.perf_counter()
        with tracer.span(name):
            value = call()
        tracer.add(f"{name}_ms", 1000 * (time.perf_counter() - started))
        tracer.add(f"{name}_calls")
        return value

    started = time.perf_counter()
    job = timed("service.submit", lambda: client.submit("analyze", spec))
    timed("service.stream", lambda: list(client.stream(job["id"])))
    response = timed("service.result", lambda: client.result(job["id"]))
    seconds = time.perf_counter() - started
    if tracer is not None:
        status = response["job"]
        if status.get("started") is not None:
            tracer.add("service.queue_wait_ms",
                       1000 * (status["started"] - status["created"]))
            tracer.add("service.queue_wait_calls")
        if status.get("finished") is not None and status.get("started"):
            tracer.add("service.run_ms",
                       1000 * (status["finished"] - status["started"]))
            tracer.add("service.run_calls")
    return seconds, response


def _service_pass(seed: int, seconds: float, tracer: Optional[spans.Tracer],
                  tag: str) -> Dict[str, Any]:
    """Cold visits, memory-warm rounds, restart on the same store, store
    reads.  A round visits every spec once; the round times are the
    pass's iterations.  Returns them with the request latencies by kind,
    the set-up samples and the check results."""
    from repro.service import ServiceError

    references = [
        (common.REFS / "service" / f"{common.spec_name(spec)}.txt")
        .read_text(encoding="utf-8") for spec in common.SERVICE_SPECS]
    plan = common.service_plan(seed)
    store = common.OUT / f"store-{os.getpid()}-{tag}"
    shutil.rmtree(store, ignore_errors=True)
    latencies: Dict[str, List[float]] = {"cold": [], "warm": [], "store": []}
    outcome = {"attempted": 0, "failed": 0, "setup": [], "rounds": []}

    def visit(client, kind: str, index: int) -> None:
        outcome["attempted"] += 1
        try:
            seconds_taken, response = _request(
                client, common.SERVICE_SPECS[index], tracer)
        except ServiceError as exc:
            outcome["failed"] += 1
            if tracer is not None and exc.code in ("queue_full",
                                                   "quota_exceeded"):
                tracer.add("service.rejections")
            return
        latencies[kind].append(seconds_taken)
        result = response.get("result") or {}
        if (response["job"]["state"] != "done"
                or not common.check_text(result.get("table"),
                                         references[index])):
            outcome["failed"] += 1

    def record_store(stats: Dict[str, Any]) -> None:
        if tracer is None:
            return
        cache = stats.get("cache", {})
        for name in ("hits", "misses", "writes", "corruptions"):
            tracer.add(f"store.{name}", cache.get(f"store_{name}", 0))

    def round_trip(client, kind: str, order: List[int]) -> None:
        started = time.perf_counter()
        for index in order:
            visit(client, kind, index)
        outcome["rounds"].append(time.perf_counter() - started)

    try:
        server = Server(store)
        outcome["setup"].append(server.setup_s)
        try:
            began = time.perf_counter()
            round_trip(server.client, "cold", plan["cold"])
            rounds = 0
            while (len(latencies["warm"]) < common.SERVICE_WARM_MIN
                   or time.perf_counter() - began < seconds):
                round_trip(server.client, "warm",
                           common.service_warm_round(seed, rounds))
                rounds += 1
        finally:
            record_store(server.stop())
        server = Server(store)
        outcome["setup"].append(server.setup_s)
        try:
            round_trip(server.client, "store", plan["store"])
        finally:
            record_store(server.stop())
    finally:
        shutil.rmtree(store, ignore_errors=True)
    outcome["latencies"] = latencies
    return outcome


def run_service(seed: int, seconds: float,
                tracer: Optional[spans.Tracer]) -> Dict[str, Any]:
    setups: List[float] = []
    if tracer is None:
        # A third start on an empty store, for the set-up median.
        store = common.OUT / f"store-{os.getpid()}-setup"
        try:
            server = Server(store)
            setups.append(server.setup_s)
            server.stop()
        finally:
            shutil.rmtree(store, ignore_errors=True)
        main = _service_pass(seed, seconds, None, "main")
        traced = None
    else:
        main = _service_pass(seed, seconds / 2, None, "untraced")
        tracer.phase = "pass"
        traced = _service_pass(seed, seconds / 2, tracer, "traced")
    setups += main["setup"]

    latencies = main["latencies"]
    warm_ms = [1000 * s for s in latencies["warm"]]
    tail_p, tail = common.tail_percentile(warm_ms)
    extra = {"req_cold_p50_ms": 1000 * common.median(latencies["cold"]),
             "req_store_p50_ms": 1000 * common.median(latencies["store"]),
             "req_warm_p50_ms": common.median(warm_ms),
             "req_warm_p90_ms": common.percentile(warm_ms, 90),
             "warm_requests": len(warm_ms),
             "warm_tail_percentile": tail_p, "warm_tail_ms": tail}
    attempted = main["attempted"] + (traced["attempted"] if traced else 0)
    failed = main["failed"] + (traced["failed"] if traced else 0)
    from repro.simulation.kernels import kernel_info

    return {"wall": main["rounds"],
            "traced": traced["rounds"] if traced else [],
            "traced_phases": ["pass"] if traced else [],
            "setup": setups, "attempted": attempted, "failed": failed,
            "peak_rss_mb": _rss_mb(resource.RUSAGE_CHILDREN),
            "kernel": kernel_info(), "extra": extra}


RUNNERS = {"sbst_grade_date13": run_sbst, "atpg_full_tiny": run_atpg,
           "service_mixed": run_service}
