"""Command-line entry point: ``python -m repro``.

The subcommands mirror the Session/Design API:

``analyze``
    Build one named SoC configuration, run the six-step §4 flow and print
    the Table-I style summary (or JSON)::

        python -m repro analyze small
        python -m repro analyze tiny --passes scan_analysis,memory_analysis --json
        python -m repro analyze date13 --jobs 2 --details

``sweep``
    Expand a scenario grid (base config + axes) and run it — in-process,
    or one scenario per task on the warm worker pool with ``--jobs N`` —
    streaming per-scenario progress and printing the aggregated
    multi-scenario comparison::

        python -m repro sweep --base tiny --axis effort=tie,random
        python -m repro sweep --base small --axis debug=on,off \\
            --jobs 2 --out sweep.json

``report``
    Re-render a persisted sweep (table, JSON or CSV)::

        python -m repro report sweep.json --csv

``corpus``
    Run the golden scenario corpus and byte-compare every rendered Table I
    against its committed capture (``--update`` refreshes the captures
    intentionally)::

        python -m repro corpus
        python -m repro corpus --update --only tiny_full

``static``
    Dump the per-net SCOAP testability numbers that guide the
    FULL-effort PODEM search::

        python -m repro static tiny --limit 10
        python -m repro static small --nets alu_out,pc_q --json

``serve`` / ``submit`` / ``jobs``
    Run the asyncio analysis service (:mod:`repro.service`) and talk to
    it::

        python -m repro submit analyze --port 7321 --design tiny
        python -m repro submit sweep --port 7321 --base tiny \\
            --axis effort=tie,random --stream
        python -m repro jobs --port 7321

``cache``
    Inspect and prune a durable artifact store (:mod:`repro.store`).

The run flags are not declared here: every :class:`repro.api.RunOptions`
knob with a flag becomes ``--<knob>`` (underscores as dashes) through
:func:`repro.api.options.add_run_flags`, and each subcommand selects the
knobs it takes (``python -m repro <command> --help`` lists them).
``--jobs N`` is the only concurrency flag.  For ``corpus`` the fault-model
flag filters the entries pinned under that model instead of overriding
them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from typing import List, Optional

from repro.api import RunOptions, ScenarioGrid, Session
from repro.api.options import add_run_flags, flag_of, knobs
from repro.api.corpus import (DEFAULT_CORPUS_DIR, CorpusError, diff_text,
                              run_corpus)
from repro.api.sweep import SweepReport
from repro.core.report import render_source_details
from repro.core.results import FlowConfig
from repro.faults.categories import source_label
from repro.pipeline import STEPS
from repro.simulation.kernels import kernel_info
from repro.soc.config import SoCConfig

#: Default TCP port of the analysis service (``repro serve``).
DEFAULT_SERVICE_PORT = 7321

#: Every run knob is a CLI flag; ``sweep`` and ``corpus`` take every one
#: but the effort, which a sweep sets as a scenario axis and a corpus entry
#: in its spec.
RUN_FLAGS = tuple(knobs())
SWEEP_RUN_FLAGS = tuple(name for name in RUN_FLAGS if name != "effort")
#: The per-call run flags the service client forwards in a job spec.
SUBMIT_RUN_FLAGS = ("effort", "fault_model")
#: ``--passes`` of ``analyze`` and ``sweep``: a spelling of the FlowConfig
#: source switches.
PASSES_HELP = ("comma-separated flow steps to run (default: all six): "
               + ", ".join(step.name for step in STEPS)
               + "; fault_list and baseline always run")



def _add_endpoint_arguments(parser: argparse.ArgumentParser,
                            default_port: int) -> None:
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="service host (default: 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=default_port, metavar="PORT",
        help=f"service port (default: {default_port})")


# --------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------- #
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=("Identify on-line functionally untestable stuck-at "
                     "faults in generated processor cores (Bernardi et "
                     "al., DATE 2013)."))
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="analyze one SoC configuration")
    analyze.add_argument(
        "config", nargs="?", default="small",
        choices=sorted(SoCConfig.named_configs()),
        help="named SoC configuration to build (default: small)")
    analyze.add_argument(
        "--passes", default=None, metavar="NAME[,NAME...]",
        help=PASSES_HELP)
    analyze.add_argument(
        "--json", action="store_true",
        help="emit a JSON document instead of the rendered table")
    analyze.add_argument(
        "--details", action="store_true",
        help="also print the per-source breakdown with example faults")
    add_run_flags(analyze, RUN_FLAGS)

    sweep = sub.add_parser(
        "sweep", help="run a scenario grid and compare the scenarios")
    sweep.add_argument(
        "--base", default="tiny",
        choices=sorted(SoCConfig.named_configs()),
        help="base SoC configuration the axes vary (default: tiny)")
    sweep.add_argument(
        "--axis", action="append", default=[], metavar="NAME=V1,V2[,...]",
        help=("a scenario axis, e.g. effort=tie,random / debug=on,off / "
              "scan=on,off / size=tiny,small / cpu.mult_width=0,8 "
              "(repeatable, one flag per axis name; cartesian product)"))
    sweep.add_argument(
        "--passes", default=None, metavar="NAME[,NAME...]",
        help=PASSES_HELP)
    sweep.add_argument(
        "--json", action="store_true",
        help="emit the aggregated sweep report as JSON on stdout")
    sweep.add_argument(
        "--csv", action="store_true",
        help="emit the per-scenario comparison as CSV on stdout")
    sweep.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the JSON sweep report to FILE")
    sweep.add_argument(
        "--quiet", action="store_true",
        help="suppress per-scenario progress lines on stderr")
    add_run_flags(sweep, SWEEP_RUN_FLAGS, help={
        "fault_model": ("default fault model for every scenario (also "
                        "available as a scenario axis: "
                        "--axis fault_model=stuck_at,transition)")})

    static = sub.add_parser(
        "static",
        help="dump the static netlist analysis (SCOAP testability numbers)")
    static.add_argument(
        "config", nargs="?", default="small",
        choices=sorted(SoCConfig.named_configs()),
        help="named SoC configuration to analyse (default: small)")
    static.add_argument(
        "--nets", default=None, metavar="NAME[,NAME...]",
        help="restrict the dump to these nets (comma-separated)")
    static.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="max nets listed, hardest-to-control first (default: 20; 0=all)")
    static.add_argument(
        "--json", action="store_true",
        help="emit the dump as JSON instead of a table")

    corpus = sub.add_parser(
        "corpus",
        help="run the golden scenario corpus and diff every Table I")
    corpus.add_argument(
        "--dir", default=str(DEFAULT_CORPUS_DIR), metavar="DIR",
        help=f"corpus directory (default: {DEFAULT_CORPUS_DIR})")
    corpus.add_argument(
        "--only", action="append", default=[], metavar="NAME",
        help="restrict to the named corpus entries (repeatable)")
    corpus.add_argument(
        "--update", action="store_true",
        help="rewrite the golden captures instead of diffing against them")
    corpus.add_argument(
        "--json", action="store_true",
        help="emit the per-entry outcomes as JSON on stdout")
    corpus.add_argument(
        "--quiet", action="store_true",
        help="suppress per-entry progress lines on stderr")
    add_run_flags(corpus, SWEEP_RUN_FLAGS, help={
        "fault_model": ("restrict the run to entries pinned under this "
                        "fault model (a filter, never an override)")})

    backends = sub.add_parser(
        "backends",
        help="list the fault models and ATPG backends")
    backends.add_argument(
        "--json", action="store_true",
        help="emit the listing as JSON")

    report = sub.add_parser(
        "report", help="re-render a persisted sweep report")
    report.add_argument("file", help="JSON file written by sweep --out/--json")
    report.add_argument(
        "--json", action="store_true", help="re-emit the JSON document")
    report.add_argument(
        "--csv", action="store_true", help="emit the comparison as CSV")

    serve = sub.add_parser(
        "serve", help="run the asyncio analysis service (repro.service)")
    _add_endpoint_arguments(serve, DEFAULT_SERVICE_PORT)
    serve.add_argument(
        "--max-queue", type=int, default=8, metavar="N",
        help="pending-job bound before submissions are rejected (default: 8)")
    serve.add_argument(
        "--quota", type=int, default=2, metavar="N",
        help="max live (queued+running) jobs per client (default: 2)")
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="concurrent job workers (default: 1)")
    add_run_flags(serve, ["store"])

    submit = sub.add_parser(
        "submit", help="submit a job to a running analysis service")
    submit.add_argument(
        "kind", choices=("analyze", "sweep"), help="job kind to submit")
    _add_endpoint_arguments(submit, DEFAULT_SERVICE_PORT)
    submit.add_argument(
        "--design", default="date13",
        choices=sorted(SoCConfig.named_configs()),
        help="SoC configuration for analyze jobs (default: date13)")
    submit.add_argument(
        "--base", default="tiny",
        choices=sorted(SoCConfig.named_configs()),
        help="base SoC configuration for sweep jobs (default: tiny)")
    submit.add_argument(
        "--axis", action="append", default=[], metavar="NAME=V1,V2[,...]",
        help="scenario axis for sweep jobs (repeatable)")
    submit.add_argument(
        "--client", default="cli", metavar="ID",
        help="client identity for quota accounting (default: cli)")
    submit.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return without waiting for completion")
    submit.add_argument(
        "--stream", action="store_true",
        help=("follow the job's event stream; each completed sweep "
              "scenario prints its Table I on stdout as it arrives"))
    submit.add_argument(
        "--json", action="store_true",
        help="emit the job result as JSON instead of the rendered table")
    submit.add_argument(
        "--quiet", action="store_true",
        help="suppress progress lines on stderr")
    submit.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="give up waiting for the job after this long (default: 600)")
    add_run_flags(submit, SUBMIT_RUN_FLAGS, help={
        "effort": "ATPG effort (default: the service session's default)",
        "fault_model": "fault model of the job (default: stuck_at)"})

    jobs = sub.add_parser(
        "jobs", help="list the jobs of a running analysis service")
    _add_endpoint_arguments(jobs, DEFAULT_SERVICE_PORT)
    jobs.add_argument(
        "--json", action="store_true",
        help="emit the job list (and service stats) as JSON")

    cache = sub.add_parser(
        "cache", help="inspect / garbage-collect a durable artifact store")
    cache.add_argument(
        "action", choices=("ls", "gc", "prune"),
        help=("ls: list stored artifacts; gc: drop debris + apply the "
              "retention policy; prune: apply only the size/age bounds"))
    add_run_flags(cache, ["store"], required=["store"], help={
        "store": "artifact store directory (or 'backend:location' spec)"})
    cache.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="retention: total artifact bytes to keep (LRU beyond that)")
    cache.add_argument(
        "--max-age", type=float, default=None, metavar="SECONDS",
        help="retention: drop artifacts unused for longer than this")
    cache.add_argument(
        "--json", action="store_true",
        help="emit the listing / prune outcome as JSON")

    return parser


# --------------------------------------------------------------------- #
# analyze
# --------------------------------------------------------------------- #
def _flow_config(spec: Optional[str]) -> Optional[FlowConfig]:
    """The :class:`FlowConfig` a ``--passes`` list selects (None = all).

    Source step names set their ``run_*`` switch; the foundation steps are
    accepted and always run.  Raises ValueError on an empty list or an
    unknown name.
    """
    if spec is None:
        return None
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise ValueError("--passes given but no pass names supplied")
    known = [step.name for step in STEPS]
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"unknown analysis pass(es) {', '.join(unknown)}; "
                         f"valid passes: {', '.join(known)}")
    return FlowConfig(**{step.switch: step.name in names
                         for step in STEPS if step.switch is not None})


def _report_as_json(report, config_name: str, elapsed: float) -> str:
    # Keep the original CLI summary contract (counts, not fault lists);
    # the full fault populations are available via report.to_json() /
    # the sweep subcommand's persisted documents.
    return json.dumps({
        "config": config_name,
        "netlist": report.netlist_name,
        **kernel_info(),
        "fault_model": report.fault_model,
        "total_faults": report.total_faults,
        "baseline_untestable": len(report.baseline_untestable),
        "total_online_untestable": report.total_online_untestable,
        "table": report.table_rows(),
        "sources": [{
            "source": source_label(summary.source),
            "identified": len(summary.identified),
            "attributed": summary.count,
            "runtime_seconds": summary.runtime_seconds,
        } for summary in report.sources],
        "runtimes": report.runtimes,
        "elapsed_seconds": elapsed,
    }, indent=2)


def _cmd_analyze(args) -> int:
    try:
        flow_config = _flow_config(args.passes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    session = Session(options=RunOptions.from_namespace(args))
    report = session.analyze(args.config, config=flow_config)
    session.cache.flush()
    elapsed = time.perf_counter() - started

    if args.json:
        print(_report_as_json(report, args.config, elapsed))
        return 0

    print(report.to_table())
    if args.details:
        print()
        print(render_source_details(report))
    print()
    summary = (f"({args.config}: {report.total_faults:,} faults analysed "
               f"in {elapsed:.2f}s")
    if args.store:
        stats = session.cache_stats
        summary += (f"; store: {stats.get('store_hits', 0)} hits, "
                    f"{stats.get('store_misses', 0)} misses, "
                    f"{stats.get('store_writes', 0)} writes, "
                    f"{stats.get('store_corruptions', 0)} corruptions")
    print(summary + ")")
    return 0


# --------------------------------------------------------------------- #
# sweep
# --------------------------------------------------------------------- #
def _parse_axis_value(text: str) -> object:
    lowered = text.strip().lower()
    if lowered in ("true", "on", "yes"):
        return True
    if lowered in ("false", "off", "no"):
        return False
    try:
        return int(lowered)
    except ValueError:
        return text.strip()


def _build_grid(args) -> ScenarioGrid:
    grid = ScenarioGrid(args.base)
    for spec in args.axis:
        name, sep, values = spec.partition("=")
        if not sep or not values.strip():
            raise ValueError(
                f"bad --axis {spec!r}; expected NAME=VALUE[,VALUE...]")
        name = name.strip()
        if name in grid.axes:
            raise ValueError(
                f"--axis {name!r} given twice; list every value in one "
                f"flag ({name}=V1,V2,...)")
        grid.axis(name,
                  [_parse_axis_value(v) for v in values.split(",") if v.strip()])
    return grid


def _cmd_sweep(args) -> int:
    try:
        grid = _build_grid(args)
        flow_config = _flow_config(args.passes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    session = Session(options=RunOptions.from_namespace(args))

    if not args.quiet:
        print(f"sweeping {len(grid)} scenarios of '{args.base}' ...",
              file=sys.stderr)

    done = []

    def progress(result) -> None:
        done.append(result)
        if not args.quiet:
            status = "ok" if result.ok else f"FAILED ({result.error})"
            print(f"  [{len(done)}/{len(grid)}] {result.label}: {status} "
                  f"({result.elapsed_seconds:.2f}s)", file=sys.stderr)

    report = session.sweep(grid, config=flow_config, on_result=progress)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        if not args.quiet:
            print(f"wrote {args.out}", file=sys.stderr)

    if args.json:
        print(report.to_json())
    elif args.csv:
        print(report.to_csv(), end="")
    else:
        print(report.to_table())
    return 0 if not report.failed else 1


# --------------------------------------------------------------------- #
# corpus
# --------------------------------------------------------------------- #
def _cmd_corpus(args) -> int:
    try:
        # The fault model filters the entries; the other knobs are the run
        # options of every entry.
        options = RunOptions.from_namespace(args)
        outcomes = run_corpus(args.dir,
                              options=replace(options, fault_model=None),
                              update=args.update, only=args.only or None,
                              fault_model=options.fault_model)
    except CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = [outcome for outcome in outcomes if not outcome.ok]
    if not args.quiet:
        for outcome in outcomes:
            print(f"  {outcome.name:<24} {outcome.status:<14} "
                  f"({outcome.elapsed_seconds:.2f}s)", file=sys.stderr)
        for outcome in failed:
            if outcome.status == "diff":
                print(f"--- Table I diff for {outcome.name} ---",
                      file=sys.stderr)
                print(diff_text(outcome), file=sys.stderr)
            elif outcome.status == "missing-golden":
                print(f"--- no golden capture for {outcome.name}; run "
                      f"'python -m repro corpus --update --only "
                      f"{outcome.name}' to create it ---", file=sys.stderr)

    if args.json:
        print(json.dumps([{
            "name": outcome.name,
            "status": outcome.status,
            "elapsed_seconds": round(outcome.elapsed_seconds, 4),
        } for outcome in outcomes], indent=2))
    else:
        verb = "updated" if args.update else "checked"
        print(f"corpus: {len(outcomes)} entries {verb}, "
              f"{len(failed)} failures")
    return 1 if failed else 0


# --------------------------------------------------------------------- #
# static
# --------------------------------------------------------------------- #
def _cmd_static(args) -> int:
    from repro.analysis import INF, get_static_analysis
    from repro.api.design import Design

    design = Design.coerce(args.config)
    static = get_static_analysis(design.netlist)
    compiled = static.compiled
    names = compiled.net_names

    if args.nets:
        wanted = [name.strip() for name in args.nets.split(",")
                  if name.strip()]
        unknown = [name for name in wanted if name not in compiled.net_id]
        if unknown:
            print(f"error: unknown net(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        ids = [compiled.net_id[name] for name in wanted]
    else:
        # Hardest-to-control first — the nets PODEM struggles with — with
        # the net name breaking ties so the listing is deterministic.
        def hardness(nid: int) -> tuple:
            cc0, cc1 = static.scoap.cc0[nid], static.scoap.cc1[nid]
            return (-min(max(cc0, cc1), INF), names[nid])

        ids = sorted(range(compiled.n_nets), key=hardness)
        if args.limit:
            ids = ids[:args.limit]

    def fmt(cost: int) -> str:
        return "inf" if cost >= INF else str(cost)

    rows = [{"net": names[nid],
             "cc0": static.scoap.cc0[nid],
             "cc1": static.scoap.cc1[nid],
             "co": static.scoap.co[nid]} for nid in ids]

    if args.json:
        print(json.dumps({
            "config": args.config,
            "netlist": design.netlist.name,
            "n_nets": compiled.n_nets,
            "learned_implications": static.implications.n_edges,
            "nets": rows,
        }, indent=2))
        return 0

    width = max([len(row["net"]) for row in rows], default=3)
    print(f"{design.netlist.name}: {compiled.n_nets} nets, "
          f"{static.implications.n_edges} learned implications")
    print(f"{'net':<{width}}  {'CC0':>6} {'CC1':>6} {'CO':>6}")
    for row in rows:
        print(f"{row['net']:<{width}}  {fmt(row['cc0']):>6} "
              f"{fmt(row['cc1']):>6} {fmt(row['co']):>6}")
    return 0


# --------------------------------------------------------------------- #
# service: serve / submit / jobs
# --------------------------------------------------------------------- #
def _cmd_serve(args) -> int:
    from repro.service import AnalysisService

    service = AnalysisService(host=args.host, port=args.port,
                              store=args.store,
                              max_queue=args.max_queue,
                              max_jobs_per_client=args.quota,
                              workers=args.workers)

    def announce(svc: AnalysisService) -> None:
        # One parseable readiness line on stdout — scripts and CI poll for
        # it (and read the port back when --port 0 asked the kernel).
        print(f"repro-service listening on {svc.host}:{svc.port}",
              flush=True)

    try:
        service.run(ready=announce)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port} ({exc})",
              file=sys.stderr)
        return 2
    print("repro-service drained and stopped", flush=True)
    return 0


def _build_submit_spec(args) -> dict:
    if args.kind == "analyze":
        spec = {"design": args.design}
    else:
        axes = {}
        for axis_spec in args.axis:
            name, sep, values = axis_spec.partition("=")
            if not sep or not values.strip():
                raise ValueError(
                    f"bad --axis {axis_spec!r}; expected NAME=VALUE[,VALUE...]")
            axes[name.strip()] = [_parse_axis_value(v)
                                  for v in values.split(",") if v.strip()]
        spec = {"base": args.base, "axes": axes}
    spec.update({name: getattr(args, name) for name in SUBMIT_RUN_FLAGS
                 if getattr(args, name) is not None})
    return spec


def _cmd_submit(args) -> int:
    from repro.service import ServiceClient, ServiceError

    try:
        spec = _build_submit_spec(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    client = ServiceClient(args.host, args.port, timeout=args.timeout,
                           client_id=args.client)
    try:
        job = client.submit(args.kind, spec)
    except ServiceError as exc:
        hint = (f" (retry after {exc.retry_after:.1f}s)"
                if exc.retry_after else "")
        print(f"error: submission rejected: {exc}{hint}", file=sys.stderr)
        return 3 if exc.code in ("queue_full", "quota_exceeded") else 2

    if not args.quiet:
        print(f"submitted {job['id']} ({args.kind}) as {args.client!r}",
              file=sys.stderr)
    if args.no_wait:
        print(job["id"])
        return 0

    try:
        if args.stream:
            final_state = None
            for event in client.stream(job["id"]):
                kind = event.get("event")
                if kind == "scenario":
                    if event.get("table"):
                        # The streamed per-scenario Table I, byte-exact —
                        # what the corpus goldens pin.
                        print(event["table"], flush=True)
                    if not args.quiet:
                        status = ("ok" if event.get("ok")
                                  else f"FAILED ({event.get('error')})")
                        print(f"  [{event.get('index')}] "
                              f"{event.get('label')}: {status} "
                              f"({event.get('elapsed_seconds', 0.0):.2f}s)",
                              file=sys.stderr)
                elif kind == "done":
                    final_state = event.get("state")
        else:
            final_state = client.wait(job["id"],
                                      timeout=args.timeout)["state"]
    except (ServiceError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    outcome = client.result(job["id"])
    if final_state != "done":
        print(f"error: job {job['id']} ended "
              f"{outcome['job'].get('state')}: "
              f"{outcome['job'].get('error')}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(outcome["result"], indent=2))
    elif not args.stream:
        print(outcome["result"]["table"])
    return 0


def _cmd_jobs(args) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port, timeout=30.0)
    try:
        jobs = client.jobs()
        stats = client.stats()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps({"jobs": jobs, "stats": stats}, indent=2))
        return 0
    if not jobs:
        print("no jobs")
    else:
        print(f"{'id':<10} {'kind':<8} {'state':<10} {'client':<12} "
              f"{'events':>6}  error")
        for job in jobs:
            print(f"{job['id']:<10} {job['kind']:<8} {job['state']:<10} "
                  f"{job['client']:<12} {job['events']:>6}  "
                  f"{job['error'] or '-'}")
    queue_stats = stats.get("jobs", {})
    print(f"(queued={queue_stats.get('queued', 0)} "
          f"running={queue_stats.get('running', 0)} "
          f"done={queue_stats.get('done', 0)} "
          f"failed={queue_stats.get('failed', 0)} "
          f"cancelled={queue_stats.get('cancelled', 0)}; "
          f"draining={stats.get('draining', False)})")
    return 0


# --------------------------------------------------------------------- #
# cache: ls / gc / prune over a durable artifact store
# --------------------------------------------------------------------- #
def _cmd_cache(args) -> int:
    from repro.store import resolve_store

    try:
        store = resolve_store(args.store)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.action == "ls":
        entries = store.entries()
        total = sum(entry.size_bytes for entry in entries)
        if args.json:
            print(json.dumps({
                "store": args.store,
                "entries": [{
                    "signature": entry.signature,
                    "config": entry.key[1],
                    "pass": entry.pass_name,
                    "size_bytes": entry.size_bytes,
                    "created": entry.created,
                    "last_used": entry.last_used,
                } for entry in entries],
                "total_bytes": total,
                "stats": store.stats,
                **kernel_info(),
            }, indent=2))
            return 0
        if not entries:
            print(f"store {args.store}: empty")
            return 0
        now = time.time()
        print(f"{'pass':<18} {'signature':<14} {'size':>10}  {'idle':>8}")
        for entry in sorted(entries, key=lambda e: (e.pass_name, e.key)):
            idle = max(0.0, now - entry.last_used)
            print(f"{entry.pass_name:<18} {entry.signature[:12] + '..':<14} "
                  f"{entry.size_bytes:>10,}  {idle:>7.0f}s")
        print(f"({len(entries)} artifacts, {total:,} bytes)")
        return 0

    # gc / prune
    if args.action == "gc":
        store.max_bytes = (args.max_bytes if args.max_bytes is not None
                           else store.max_bytes)
        store.max_age_seconds = (args.max_age if args.max_age is not None
                                 else store.max_age_seconds)
        result = store.gc()
    else:
        result = store.prune(max_bytes=args.max_bytes,
                             max_age_seconds=args.max_age)
    if args.json:
        print(json.dumps({
            "action": args.action,
            "removed_entries": result.removed_entries,
            "removed_bytes": result.removed_bytes,
            "removed_debris": result.removed_debris,
            "kept_entries": result.kept_entries,
            "kept_bytes": result.kept_bytes,
            "reasons": result.reasons,
        }, indent=2))
    else:
        print(f"{args.action}: removed {result.removed_entries} artifacts "
              f"({result.removed_bytes:,} bytes) and "
              f"{result.removed_debris} debris files; kept "
              f"{result.kept_entries} ({result.kept_bytes:,} bytes)")
    return 0


# --------------------------------------------------------------------- #
# backends: one listing of the fault-model and ATPG-backend tables
# --------------------------------------------------------------------- #
def _cmd_backends(args) -> int:
    from repro.atpg.portfolio import ATPG_BACKENDS
    from repro.faults.models import FAULT_MODELS

    tables = {
        "fault_models": [{"name": name, "note": model.label}
                         for name, model in FAULT_MODELS.items()],
        "atpg_backends": [
            {"name": name, "note": ATPG_BACKENDS[name].description}
            for name in sorted(ATPG_BACKENDS)],
    }

    if args.json:
        print(json.dumps(tables, indent=2))
        return 0
    titles = {"fault_models": f"fault models ({flag_of('fault_model')})",
              "atpg_backends": f"ATPG backends ({flag_of('atpg_backend')})"}
    for key, entries in tables.items():
        print(f"{titles[key]}:")
        for entry in entries:
            print(f"  {entry['name']:<16} {entry['note']}")
        print()
    return 0


# --------------------------------------------------------------------- #
# report
# --------------------------------------------------------------------- #
def _cmd_report(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            report = SweepReport.from_json(handle.read())
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load sweep report {args.file!r}: {exc}",
              file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json())
    elif args.csv:
        print(report.to_csv(), end="")
    else:
        print(report.to_table())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)
    handler = {"analyze": _cmd_analyze,
               "sweep": _cmd_sweep,
               "report": _cmd_report,
               "corpus": _cmd_corpus,
               "static": _cmd_static,
               "serve": _cmd_serve,
               "submit": _cmd_submit,
               "jobs": _cmd_jobs,
               "cache": _cmd_cache,
               "backends": _cmd_backends}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
