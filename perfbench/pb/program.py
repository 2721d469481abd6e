"""The program processes the benchmark starts.

``batch`` is the ``table1`` program process: it loads the workload's
problems, error models and verifier tables (set-up), prints ``ready``,
then grades the generated corpus once, serially, through
:class:`repro.service.runner.BatchRunner`, one fresh runner (empty
cache) per problem, as ``repro-feedback batch --jobs 1`` does for one
directory. It writes every record with the ``perf_counter`` times
between which it settled, the times each problem's grading ran, and
the process's CPU time and peak RSS to ``--out``.

``serve`` starts the unmodified ``repro-feedback serve`` CLI in this
process with the tracer installed; untraced serving runs start the CLI
directly and never import this module.

``--trace DIR`` installs :mod:`pb.trace` before any grading; spans land
in ``DIR/spans-<pid>.json`` at exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

from pb.trace import Tracer, install, source_key
from repro import cli
from repro.engines.verify import BoundedVerifier
from repro.problems import get_problem
from repro.service.cache import ResultCache
from repro.service.records import report_to_record
from repro.service.runner import BatchItem, BatchRunner


def _sids(doc: dict) -> Dict[str, str]:
    """``source_key -> submission id`` over every text the run sends."""
    out = {}
    for sid, sub in doc["submissions"].items():
        out[source_key(sub["source"])] = sid
        for variant in sub.get("variants", ()):
            out[source_key(variant["source"])] = sid
    return out


def _tracer(trace_dir: Optional[str], doc: dict) -> Optional[Tracer]:
    if not trace_dir:
        return None
    tracer = Tracer(trace_dir, _sids(doc))
    install(tracer)
    return tracer


def setup(doc: dict, tracer: Optional[Tracer]) -> dict:
    """Load every problem, its error model and its verifier table, then
    announce ``ready`` (the end of set-up the benchmark times)."""
    warm = {}
    for name in doc["problems"]:
        span = tracer.span("warm", request=name) if tracer else nullcontext({})
        with span as attrs:
            problem = get_problem(name)
            verifier = BoundedVerifier(problem.spec)
            attrs["inputs"] = len(verifier.inputs)
            warm[name] = (problem, problem.model, verifier)
    print("ready", flush=True)
    return warm


def grade(doc: dict, warm: dict, order: list) -> dict:
    """One serial pass over the corpus, problem by problem in ``order``
    (one of the generated orders), each through a fresh runner with an
    empty cache."""
    results: List[dict] = []
    runner_stats: List[dict] = []
    timed: List[tuple] = []
    cpu_start = time.process_time()
    for name, sids in order:
        problem, model, verifier = warm[name]
        settled: List[tuple] = []
        runner = BatchRunner(
            problem,
            model=model,
            jobs=1,
            timeout_s=doc["budget_s"],
            cache=ResultCache(),
            verifier=verifier,
            progress=lambda done, total, result: settled.append(
                (time.perf_counter(), result)
            ),
        )
        items = [
            BatchItem(sid=sid, source=doc["submissions"][sid]["source"])
            for sid in sids
        ]
        started = time.perf_counter()
        runner.run(items)
        timed.append((started, time.perf_counter()))
        previous = started
        for settled_at, result in settled:
            results.append(
                {
                    "sid": result.sid,
                    "span": (previous, settled_at),
                    "cached": result.cached,
                    "record": report_to_record(result.report),
                }
            )
            previous = settled_at
        stats = runner.stats
        runner_stats.append(
            {
                "problem": name,
                "graded": stats.graded,
                "cache_hits": stats.cache_hits,
                "dedup_hits": stats.dedup_hits,
            }
        )
    return {
        "timed": timed,
        "cpu_s": time.process_time() - cpu_start,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
        "runner": runner_stats,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("mode", choices=["batch", "serve"])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out")
    parser.add_argument("--pass", dest="pass_number", type=int, default=0)
    parser.add_argument("--trace", default=None)
    args, rest = parser.parse_known_args(argv)
    with open(args.inputs, encoding="utf-8") as handle:
        doc = json.load(handle)
    tracer = _tracer(args.trace, doc)
    if args.mode == "serve":
        return cli.main(["serve", *rest])
    outcome = grade(doc, setup(doc, tracer), doc["orders"][args.pass_number])
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(outcome, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
