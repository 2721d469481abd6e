"""Command-line interface: ``repro-feedback``.

Subcommands:

- ``problems`` — list the benchmark problems;
- ``grade FILE --problem NAME`` — classify a submission;
- ``feedback FILE --problem NAME`` — run the full pipeline and print the
  Fig. 2-style feedback block;
- ``batch DIR --problem NAME`` — grade a directory of submissions through
  the batch service (parallel workers, result cache, JSONL output,
  ``--resume`` to continue an interrupted run); exits non-zero when any
  submission timed out or errored;
- ``serve`` — run the persistent feedback server (warm precompiled
  problems, admission queue, shared result cache, a pool of ``--jobs``
  grading processes on multi-core machines); ``--fleet N`` launches N
  backend server processes fronted by one consistent-hashing router,
  ``--store`` persists the cache to the append-log result store every
  backend reads through;
- ``route`` — run just the fleet front router over already-running
  backends (``host:port`` each);
- ``cache`` — inspect (``stats``) or compact (``compact``) a shared
  result-store log without stopping the fleet;
- ``table1`` — regenerate the Table 1 experiment on synthetic corpora;
- ``lint`` — static analysis over ``.eml`` error models (shadowed /
  dead / ill-typed / zero-cost rules, candidate-space estimates); exits
  non-zero on any ERROR finding;
- ``coverage`` — grade a corpus and join the results against the rule
  inventory: which rules fire, which never do, which submissions stay
  unfixable.
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import sys
import time
from typing import Optional

from repro.compile import BACKEND, BACKENDS
from repro.core import generate_feedback, grade_submission
from repro.core.feedback import FeedbackLevel
from repro.engines import DEFAULT_ENGINE, DEFAULT_TIMEOUT_S, ENGINES, engine_by_name
from repro.obs import OBS, SLOW_MS
from repro.problems import all_problems, get_problem
from repro.resilience.deadline import MAX_BUDGET_S, budget


def cmd_problems(args: argparse.Namespace) -> int:
    for problem in all_problems():
        row = problem.table1
        paper = f"paper: {row.feedback_percent:.1f}% fixed" if row else ""
        print(
            f"{problem.name:22s} {problem.language:7s} "
            f"{len(problem.model):2d} rules  {paper}"
        )
    return 0


def cmd_grade(args: argparse.Namespace) -> int:
    problem = get_problem(args.problem)
    source = open(args.file).read()
    print(grade_submission(source, problem.spec))
    return 0


def cmd_feedback(args: argparse.Namespace) -> int:
    problem = get_problem(args.problem)
    source = open(args.file).read()
    report = generate_feedback(
        source,
        problem.spec,
        problem.model,
        engine=engine_by_name(args.engine),
        timeout_s=args.timeout,
    )
    print(report.render(FeedbackLevel(args.level)))
    if args.show_fix and report.fixed_source:
        print("\n# corrected program:")
        print(report.fixed_source)
    print(
        f"\n[{report.status}; cost={report.cost}; "
        f"time={report.wall_time:.2f}s]"
    )
    return 0 if report.status in ("fixed", "already_correct") else 1


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.harness import run_table1, format_table1

    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    rows = run_table1(
        corpus_size=args.corpus_size,
        seed=args.seed,
        timeout_s=args.timeout,
        problems=args.only,
        jobs=args.jobs,
    )
    print(format_table1(rows))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import lint_problem, lint_source

    reports = []
    if args.files:
        for path in args.files:
            text = pathlib.Path(path).read_text()
            reports.append(lint_source(text, source_name=path))
    else:
        names = args.problem or [p.name for p in all_problems()]
        for name in names:
            reports.append(lint_problem(get_problem(name)))

    findings = sum(len(report.diagnostics) for report in reports)
    if args.format == "json":
        print(json.dumps([report.to_json() for report in reports], indent=2))
    else:
        for report in reports:
            print(report.render())
        noun = "finding" if findings == 1 else "findings"
        print(f"linted {len(reports)} model(s): {findings} {noun}")
    return 1 if any(report.errors for report in reports) else 0


def _open_cache(path: Optional[str], background: bool = True):
    """A memory-only cache, or with ``path`` a StoreClient over that log.

    Exits with the store's message when ``path`` holds something else (a
    batch's results, a pre-JSONL cache blob). Batch commands pass
    ``background=False``: each run flushes the store when it ends, and
    their worker pools then fork from a parent with no flush thread.
    """
    from repro.service import ResultCache
    from repro.service.store import StoreClient

    if path is None:
        return ResultCache()
    try:
        return StoreClient(path, background=background)
    except ValueError as exc:
        raise SystemExit(str(exc))


def cmd_coverage(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import render_coverage, run_coverage

    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    names = args.problem or [p.name for p in all_problems()]
    sources = None
    if args.directory:
        if len(names) != 1:
            raise SystemExit(
                "a submissions directory covers exactly one --problem"
            )
        directory = pathlib.Path(args.directory)
        if not directory.is_dir():
            raise SystemExit(f"not a directory: {directory}")
        paths = sorted(directory.glob(args.pattern))
        if not paths:
            raise SystemExit(f"no {args.pattern} files in {directory}")
        sources = [
            (str(path.relative_to(directory)), path.read_text())
            for path in paths
        ]
    cache = _open_cache(args.cache, background=False)
    reports = [
        run_coverage(
            get_problem(name),
            sources=sources,
            jobs=args.jobs,
            timeout_s=args.timeout,
            engine=args.engine,
            seed=args.seed,
            count=args.count,
            cache=cache,
        )
        for name in names
    ]
    if args.format == "json":
        print(json.dumps([report.to_json() for report in reports], indent=2))
    else:
        print(render_coverage(reports))
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.service import BatchItem, BatchRunner, JobStore

    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    problem = get_problem(args.problem)
    directory = pathlib.Path(args.directory)
    if not directory.is_dir():
        raise SystemExit(f"not a directory: {directory}")
    paths = sorted(directory.glob(args.pattern))
    if not paths:
        raise SystemExit(f"no {args.pattern} files in {directory}")
    items = [
        BatchItem(sid=str(path.relative_to(directory)), source=path.read_text())
        for path in paths
    ]

    out = pathlib.Path(args.out) if args.out else directory / "results.jsonl"
    store = JobStore(out)
    cache = _open_cache(args.cache, background=False)

    def progress(done: int, total: int, result) -> None:
        report = result.report
        how = (
            "resumed"
            if result.resumed
            else "cached"
            if result.cached
            else f"{report.wall_time:.2f}s"
        )
        cost = f" cost={report.cost}" if report.cost is not None else ""
        print(f"[{done}/{total}] {result.sid}: {report.status}{cost} ({how})")

    runner = BatchRunner(
        problem,
        jobs=args.jobs,
        timeout_s=args.timeout,
        engine=args.engine,
        cache=cache,
        store=store,
        resume=args.resume,
        progress=progress,
    )
    results = runner.run(items)
    stats = runner.stats

    print(f"\n== batch summary: {problem.name} ==")
    for status in sorted(stats.by_status):
        print(f"  {status:16s} {stats.by_status[status]}")
    print(
        f"  {len(results)} submissions: {stats.graded} graded, "
        f"{stats.cache_hits} cache hits, {stats.dedup_hits} duplicates, "
        f"{stats.resumed} resumed"
    )
    print(f"  wall time {stats.wall_time:.2f}s with {args.jobs} job(s)")
    print(f"  results -> {out}")
    if stats.failures:
        # Timeouts and internal errors mean the batch did not settle every
        # submission; scripted pipelines must see that in the exit code.
        print(
            f"  FAILED: {stats.failures} submission(s) timed out or "
            "errored (rerun with --resume and a larger --timeout)"
        )
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.resilience import faults as fault_injection

    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    if args.queue < 0:
        raise SystemExit("--queue must be >= 0")
    if args.breaker_threshold < 0:
        raise SystemExit("--breaker-threshold must be >= 0")
    if args.breaker_reset <= 0:
        raise SystemExit("--breaker-reset must be > 0")
    if args.fleet_logs is not None and not pathlib.Path(args.fleet_logs).is_dir():
        raise SystemExit(f"--fleet-logs: not a directory: {args.fleet_logs}")
    if args.slow_ms is not None:
        # Process-wide default: worker forks inherit it, and the service
        # needs no extra plumbing for the event threshold.
        try:
            SLOW_MS.set(args.slow_ms)
        except ValueError as exc:
            raise SystemExit(f"--slow-ms: {exc}")
    if args.faults:
        # Parsed here so a fleet refuses a bad spec before any backend
        # starts; only a single node arms it, below.
        try:
            fault_injection.parse_spec(args.faults)
        except ValueError as exc:
            raise SystemExit(f"--faults: {exc}")
    if args.fleet is not None:
        return _serve_fleet(args)
    if args.faults:
        # Explicit flag outranks REPRO_FAULTS. Workers hold no plan of
        # their own: this process draws their faults per request.
        fault_injection.configure(args.faults)
        print(f"FAULT INJECTION ARMED: {args.faults}")
    # The daemon wants its structured events on stderr (one JSON line per
    # grading; slow ones at WARNING) for as long as it serves.
    from repro.obs.events import stderr_events

    with stderr_events():
        return _serve_node(args)


def _serve_node(args: argparse.Namespace) -> int:
    """``serve`` without ``--fleet``: warm, then serve until interrupted."""
    from repro.server import (
        EXECUTOR,
        FeedbackHTTPServer,
        FeedbackService,
        default_executor,
        warm_registry,
    )
    from repro.service import GradingConfig

    # Flag > environment > core-count default (EXECUTOR alone would fall
    # back to "thread", the library default — the daemon's default is the
    # multi-core-aware one).
    executor = args.executor or EXECUTOR.env() or default_executor()
    # Opened before the warmup, so a path that is not a store log fails
    # fast. The store writes behind and reads through, so verdicts from
    # sibling backends become local cache hits without a restart.
    cache = _open_cache(args.store)

    def warmed(warm) -> None:
        print(
            f"warm {warm.name:22s} {len(warm.verifier.inputs):5d} inputs  "
            f"{warm.warm_time_s:6.2f}s"
            + ("" if warm.primed else "  (priming skipped)")
        )

    config = GradingConfig(args.engine, args.timeout)
    print(f"warming {'all' if not args.only else len(args.only)} problems ...")
    warmup = warm_registry(
        names=args.only, config=config, prime=not args.no_prime, progress=warmed
    )
    print(f"warmup done: {len(warmup)} problems in {warmup.total_time_s:.2f}s")
    # The warm heap lives as long as the server: freeze it, so no
    # collection here or in a worker forked from here walks it (a walk
    # would also copy each page it touches into the worker).
    gc.collect()
    gc.freeze()
    try:
        if executor == "process":
            print(f"forking {args.jobs} grading worker(s) from the warm problems ...")
        service = FeedbackService(
            warmup=warmup,
            jobs=args.jobs,
            queue_limit=args.queue,
            cache=cache,
            config=config,
            executor=executor,
            breaker_threshold=args.breaker_threshold,
            breaker_reset_s=args.breaker_reset,
            node_id=args.node_id,
        )
        server = FeedbackHTTPServer(
            service, host=args.host, port=args.port, verbose=args.verbose
        )
        storage = args.store or "in-memory"
        print(
            f"serving on http://{args.host}:{server.port}  "
            f"(node={service.node_id}, executor={service.executor}, "
            f"jobs={args.jobs}, queue={args.queue}, cache={storage})"
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\ndraining in-flight gradings ...")
            server.shutdown_gracefully(drain=True)
            print("bye")
        finally:
            if args.store:
                cache.close()  # stop the flush thread, push the last batch
    finally:
        gc.unfreeze()
    return 0


def _serve_fleet(args: argparse.Namespace) -> int:
    """``serve --fleet N``: N backend processes behind one router, each
    started with every backend flag this command was given."""
    from repro.fleet import start_fleet
    from repro.service import GradingConfig

    if args.fleet < 1:
        raise SystemExit("--fleet must be >= 1")
    extra_args = [
        "--breaker-threshold", str(args.breaker_threshold),
        "--breaker-reset", str(args.breaker_reset),
    ]
    if args.slow_ms is not None:
        extra_args += ["--slow-ms", str(args.slow_ms)]
    if args.faults:
        extra_args += ["--faults", args.faults]
    if args.verbose:
        extra_args.append("--verbose")
    print(f"launching fleet: {args.fleet} backend(s) + router ...")
    fleet = start_fleet(
        args.fleet,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue=args.queue,
        executor=args.executor,
        only=args.only,
        store=args.store,
        config=GradingConfig(args.engine, args.timeout),
        no_prime=args.no_prime,
        log_dir=args.fleet_logs,
        extra_args=extra_args,
        progress=print,
    )
    for backend in fleet.backends:
        print(f"  backend {backend.node_id} on http://{backend.address}")
    print(
        f"routing on http://{fleet.host}:{fleet.port}  "
        f"(backends={args.fleet}, store={args.store or 'per-node'})"
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nstopping fleet (router first, then backend drains) ...")
        fleet.stop()
        print("bye")
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    """Run just the front router over already-running backends."""
    from repro.fleet import FleetRouter

    router = FleetRouter(
        args.backends,
        host=args.host,
        port=args.port,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset,
        problems=args.only,
        default_timeout_s=args.timeout,
    )
    print(
        f"routing on http://{router.host}:{router.port}  "
        f"-> {len(args.backends)} backend(s): {', '.join(args.backends)}"
    )
    try:
        router.run()
    except KeyboardInterrupt:
        print("\nbye")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or compact a shared result-store log."""
    import json as _json

    from repro.service.store import ResultStore

    try:
        store = ResultStore(args.path)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if not store.path.exists():
        raise SystemExit(f"no store log at {store.path}")
    if args.action == "compact":
        before = store.stats()
        after = store.compact()
        payload = {"before": before, "after": after}
    else:
        payload = store.stats()
    print(_json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _grading_args(
    parser: argparse.ArgumentParser, timeout_s: float, engine: bool = True
) -> None:
    """A verb's ``--engine`` (unless it grades with the default engine
    only) and ``--timeout``: what a grading config takes besides the
    global flags."""
    if engine:
        parser.add_argument("--engine", default=DEFAULT_ENGINE, choices=ENGINES)
    parser.add_argument(
        "--timeout",
        type=budget,
        default=timeout_s,
        help=f"per-submission solver budget in seconds, at most "
        f"{MAX_BUDGET_S:g} (default {timeout_s:g})",
    )


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-feedback",
        description=(
            "Automated feedback generation for introductory programming "
            "assignments (PLDI 2013 reproduction)"
        ),
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=list(BACKENDS),
        help=(
            "execution substrate: 'compiled' (closure-compiled, default) "
            "or 'interp' (tree-walking interpreter escape hatch); also "
            "settable via REPRO_BACKEND"
        ),
    )
    parser.add_argument(
        "--obs",
        default=None,
        choices=["on", "off"],
        help=(
            "observability: 'on' (default) records metrics, traces and "
            "events; 'off' disables every registry write and strips the "
            "record 'metrics' key (the overhead ablation); also settable "
            "via REPRO_OBS"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Every --problem/--only takes registry names only, so an unknown
    # one is a usage error before any verb runs.
    names = {"choices": [p.name for p in all_problems()], "metavar": "NAME"}

    sub.add_parser("problems", help="list benchmark problems")

    grade = sub.add_parser("grade", help="classify a submission")
    grade.add_argument("file")
    grade.add_argument("--problem", required=True, **names)

    feedback = sub.add_parser("feedback", help="generate feedback")
    feedback.add_argument("file")
    feedback.add_argument("--problem", required=True, **names)
    feedback.add_argument(
        "--level",
        type=int,
        default=int(FeedbackLevel.FULL),
        choices=[1, 2, 3, 4],
        help="feedback level: 1=location .. 4=full correction",
    )
    _grading_args(feedback, 60.0)
    feedback.add_argument(
        "--show-fix", action="store_true", help="print the corrected program"
    )

    batch = sub.add_parser(
        "batch", help="grade a directory of submissions in parallel"
    )
    batch.add_argument("directory", help="directory of submission files")
    batch.add_argument("--problem", required=True, **names)
    batch.add_argument(
        "--jobs", type=int, default=1, help="parallel worker processes"
    )
    _grading_args(batch, DEFAULT_TIMEOUT_S)
    batch.add_argument(
        "--pattern", default="*.py", help="submission filename glob"
    )
    batch.add_argument(
        "--out", default=None, help="JSONL output (default DIR/results.jsonl)"
    )
    batch.add_argument(
        "--cache",
        default=None,
        help="result-store log (append-only JSONL) that answers repeats "
        "across runs; created if missing",
    )
    batch.add_argument(
        "--resume",
        action="store_true",
        help="skip submissions already in the JSONL output",
    )

    serve = sub.add_parser(
        "serve", help="run the persistent feedback server"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321)
    serve.add_argument(
        "--jobs", type=int, default=2, help="concurrent grading slots; with "
        "--executor process, each slot is one worker process"
    )
    serve.add_argument(
        "--executor",
        default=None,
        choices=["thread", "process"],
        help=(
            "where admitted gradings run: 'process' (default on multi-core "
            "machines) forks workers from the warm problems so cache misses "
            "scale across cores; 'thread' (default on one core) grades on "
            "the request thread, GIL-bound"
        ),
    )
    serve.add_argument(
        "--queue",
        type=int,
        default=16,
        help="admission queue depth beyond the grading slots "
        "(overflow gets 429 + Retry-After)",
    )
    serve.add_argument(
        "--store",
        default=None,
        help="result-store log (append-only JSONL) that persists the "
        "cache: backends write behind and read through it, so a fleet "
        "shares verdicts",
    )
    serve.add_argument(
        "--node-id",
        default=None,
        help="stable identity reported in /healthz and /stats (default: "
        "host-pid; the fleet launcher assigns node-0..N-1)",
    )
    serve.add_argument(
        "--fleet",
        type=int,
        default=None,
        metavar="N",
        help="launch N backend server processes behind one consistent-"
        "hashing front router listening on --host:--port",
    )
    serve.add_argument(
        "--fleet-logs",
        default=None,
        metavar="DIR",
        help="with --fleet: write each backend's stdout/stderr to "
        "DIR/node-K.log (default: discarded)",
    )
    _grading_args(serve, DEFAULT_TIMEOUT_S)
    serve.add_argument(
        "--only", nargs="*", default=None, help="warm only these problems",
        **names,
    )
    serve.add_argument(
        "--no-prime",
        action="store_true",
        help="skip the full-pipeline priming grade per problem, the "
        "startup self-test the server runs once before it forks any "
        "worker (faster startup, colder first requests, no self-test)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="log gradings slower than this many ms at WARNING with "
        '"slow": true (default 1000; also settable via REPRO_SLOW_MS)',
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive timeouts/errors on one problem (or one exact "
        "submission) before its circuit breaker opens and requests get "
        "degraded feedback without a solve; 0 disables the breakers",
    )
    serve.add_argument(
        "--breaker-reset",
        type=float,
        default=30.0,
        help="seconds an open breaker waits before letting one half-open "
        "probe grade for real",
    )
    serve.add_argument(
        "--faults",
        default=None,
        help="arm fault injection (testing only), e.g. "
        "'worker.crash:n=1,cache.write:p=0.5:seed=7'; also settable via "
        "REPRO_FAULTS",
    )

    route = sub.add_parser(
        "route",
        help="run the fleet front router over already-running backends",
    )
    route.add_argument(
        "backends",
        nargs="+",
        metavar="HOST:PORT",
        help="backend feedback servers to route across",
    )
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument("--port", type=int, default=8321)
    route.add_argument(
        "--only",
        nargs="*",
        default=None,
        help="route only these problems (must match the backends' "
        "--only set)",
        **names,
    )
    route.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="transport failures before a backend's breaker opens and "
        "its keys rebalance onto ring neighbors",
    )
    route.add_argument(
        "--breaker-reset",
        type=float,
        default=5.0,
        help="seconds an open backend breaker waits before one "
        "half-open probe request",
    )
    # The budget a request without timeout_s gets: set it to the
    # backends' serve --timeout, or the router gives up on their gradings.
    _grading_args(route, DEFAULT_TIMEOUT_S, engine=False)

    cache_cmd = sub.add_parser(
        "cache", help="inspect or compact a shared result-store log"
    )
    cache_cmd.add_argument(
        "action",
        choices=["stats", "compact"],
        help="stats: log health (live entries, dead lines, generation); "
        "compact: rewrite the log without superseded lines",
    )
    cache_cmd.add_argument("path", help="the store log file")

    lint = sub.add_parser(
        "lint", help="static analysis over .eml error models"
    )
    lint.add_argument(
        "files",
        nargs="*",
        help=".eml files to lint (default: every registry model)",
    )
    lint.add_argument(
        "--problem",
        action="append",
        default=None,
        help="lint this registry problem's model (repeatable; implies "
        "problem-aware checks: dead rules, candidate-space estimate)",
        **names,
    )
    lint.add_argument(
        "--format", default="text", choices=["text", "json"]
    )

    coverage = sub.add_parser(
        "coverage",
        help="grade a corpus and report which model rules fire",
    )
    coverage.add_argument(
        "--problem",
        action="append",
        default=None,
        help="cover this problem (repeatable; default: every problem)",
        **names,
    )
    coverage.add_argument(
        "--dir",
        dest="directory",
        default=None,
        help="directory of submission files (default: the deterministic "
        "studentgen corpus)",
    )
    coverage.add_argument(
        "--pattern", default="*.py", help="submission filename glob"
    )
    coverage.add_argument("--jobs", type=int, default=1)
    _grading_args(coverage, DEFAULT_TIMEOUT_S)
    coverage.add_argument(
        "--seed", type=int, default=0, help="studentgen corpus seed"
    )
    coverage.add_argument(
        "--count",
        type=int,
        default=24,
        help="incorrect submissions per generated corpus",
    )
    coverage.add_argument(
        "--cache",
        default=None,
        help="result-store log (append-only JSONL) that answers repeats "
        "across runs; created if missing",
    )
    coverage.add_argument(
        "--format", default="text", choices=["text", "json"]
    )

    table1 = sub.add_parser("table1", help="run the Table 1 experiment")
    table1.add_argument("--corpus-size", type=int, default=24)
    table1.add_argument("--seed", type=int, default=0)
    _grading_args(table1, 60.0, engine=False)
    table1.add_argument(
        "--jobs", type=int, default=1, help="parallel worker processes"
    )
    table1.add_argument(
        "--only", nargs="*", default=None, help="restrict to these problems",
        **names,
    )

    args = parser.parse_args(argv)
    # Process settings, set before anything is built: every executor
    # reads the backend when it is built, and pool workers inherit both.
    if args.backend is not None:
        BACKEND.set(args.backend)
    if args.obs is not None:
        OBS.set(args.obs)
    handlers = {
        "problems": cmd_problems,
        "grade": cmd_grade,
        "feedback": cmd_feedback,
        "batch": cmd_batch,
        "serve": cmd_serve,
        "route": cmd_route,
        "cache": cmd_cache,
        "table1": cmd_table1,
        "lint": cmd_lint,
        "coverage": cmd_coverage,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
