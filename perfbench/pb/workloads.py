"""The three workloads, each run as one session against fresh program
processes. A session returns raw observations; :mod:`pb.report` turns
them into metrics. Everything here runs in the load-generator process
and talks to the program only through processes, HTTP and files.

A run makes :func:`passes` passes, each against fresh program
process(es) whose start-up is one ``setup_s`` sample. A pass is a fixed
unit of work of every workload: the whole corpus (``table1``) or the
whole generated stream (``resubmit``, ``classroom``), about
:data:`PASS_SECONDS` on a 2-vCPU box. Every pass sends the same
requests (a ``table1`` pass grades them in its own order); a request's
latency is the median of its passes and throughput, CPU time and memory
the median pass's.

Every time is read off the session's :class:`pb.clock.Clock`, which a
sampler on the program's CPU keeps at the box's current speed: the
passes record ``perf_counter`` times, and :func:`_combine` turns each
interval into virtual seconds. The whole run is on one CPU (see
``perfbench/run.py``), so the sampler sees the CPU every program
process, and the load generator, runs on."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

from pb import serving
from pb.clock import Clock, Sampler

#: Seconds one pass of any workload takes on a 2-vCPU box.
PASS_SECONDS = 10.0

#: The workloads' fixed tail percentiles, each leaving at least ten
#: samples beyond it. ``table1`` (50 submissions): p80, the eleventh
#: slowest solve. ``classroom`` (208 requests, 50 of them misses): p95,
#: the same region of solves (p90 fell among the 20-40 ms
#: misses, where a run's value moved by a third). ``resubmit`` (8000
#: hits a pass): p90; p99 of a 1 ms hit moved by a third between
#: identical runs.
TAIL = {"table1": 0.80, "resubmit": 0.90, "classroom": 0.95}

DEFINITIVE = frozenset({"fixed", "no_fix", "static"})

#: ``resubmit`` clients: one. A hit costs the server well under a
#: millisecond of GIL-bound work, so a second connection only makes its
#: handler threads trade the interpreter lock (5 ms switch interval),
#: which turned p99 into a measure of the scheduler (3.6-12.9 ms across
#: five identical runs with two clients, at the same throughput).
RESUBMIT_CLIENTS = 1

#: ``classroom`` clients: one, so a resubmission always follows its
#: original's answer and a pass's length is the sum of its requests.
#: With two, the seed's order decided how often a client stalled behind
#: the other's solve and how the last solves overlapped: throughput
#: ranged 26.6-45.6 subs/s over five seeds.
CLASSROOM_CLIENTS = 1

#: Clients of the untimed cache fill (the grading workers).
FILL_CLIENTS = 2


def passes(seconds: float) -> int:
    """Passes in a run that measures for about ``seconds``; ``setup_s``
    is the median of their program starts."""
    return max(1, round(seconds / PASS_SECONDS))


def program_env(root: str) -> dict:
    """The environment of every child process: the checkout's ``src``
    and the benchmark's own modules on the path."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), here]),
    )


class Context:
    """Paths, environment and generated inputs of one run."""

    def __init__(self, root: str, work: str, inputs_path: str, doc: dict):
        self.work = work
        self.inputs_path = inputs_path
        self.doc = doc
        self.env = program_env(root)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


def _verdict(record: dict) -> tuple:
    return record.get("status"), record.get("cost")


def _outcome(request_id: str, status: str, record: dict) -> tuple:
    """``(request id, status, fix)``; ``fix`` is ``(problem,
    fixed_source)`` for a ``fixed`` answer, which the gate re-checks."""
    fix = None
    if status == "fixed":
        fix = (record.get("problem"), record.get("fixed_source"))
    return request_id, status, fix


def _fixes(pairs) -> List[dict]:
    return [
        {"sid": sid, "problem": record["problem"], "fixed_source": record.get("fixed_source")}
        for sid, record in pairs
        if record.get("status") == "fixed"
    ]


def _combine(passes: List[dict], key: Callable[[dict], str], clock: Clock) -> dict:
    """Merge per-pass observations, every time on ``clock``: median
    latency per request (over the requests every pass sent), median pass
    throughput, CPU and memory; every pass must give each request the
    verdict the first pass gave it, and the same program counts. A
    mismatch is ``(request id or None, message)``."""
    first = passes[0]
    mismatches = [m for p in passes for m in p["mismatches"]]
    answered = [{key(a): a for a in p["answers"]} for p in passes]
    common = [k for k in answered[0] if all(k in other for other in answered[1:])]
    for number, by_key in enumerate(answered[1:], start=1):
        for k in common:
            if _verdict(by_key[k]["record"]) != _verdict(answered[0][k]["record"]):
                mismatches.append((
                    k,
                    f"{k}: pass {number} gave {_verdict(by_key[k]['record'])}, "
                    f"pass 0 {_verdict(answered[0][k]['record'])}",
                ))
        if passes[number]["program_counts"] != first["program_counts"]:
            mismatches.append((
                None,
                f"program counts differ between passes: "
                f"{passes[number]['program_counts']} != {first['program_counts']}",
            ))
    # Verdicts, records and counts are the first pass's (the others were
    # checked equal above); timings and memory are medians over passes.
    # A pass's timed phase is one or more intervals (table1: one per
    # problem); its CPU time is scaled by the clock over them.
    elapsed = [sum(clock.span(a, b) for a, b in p["timed"]) for p in passes]
    wall = [sum(b - a for a, b in p["timed"]) for p in passes]
    combined = dict(first)
    del combined["answers"]
    combined.update(
        setup_s=[clock.span(*p["setup_at"]) for p in passes],
        latencies=[
            statistics.median(clock.span(*by_key[k]["span"]) for by_key in answered)
            for k in common
        ],
        subs_per_s=statistics.median(
            len(p["answers"]) / e for p, e in zip(passes, elapsed)
        ),
        cpu_ms_per_sub=statistics.median(
            1000.0 * p["cpu_s"] * e / w / len(p["answers"])
            for p, e, w in zip(passes, elapsed, wall)
        ),
        peak_rss_mb=statistics.median(p["peak_rss_mb"] for p in passes),
        wall_s=statistics.median(wall),
        clock_scale=sum(elapsed) / sum(wall),
        loop_ms=1000.0 * clock.loop_s,
        passes=len(passes),
        mismatches=mismatches,
    )
    return combined


def _session(ctx: Context, count: int, run_pass: Callable[[int], dict], key) -> dict:
    """``count`` passes timed on one sampler's clock."""
    with Sampler(ctx.env, ctx.path("clock.json")) as sampler:
        runs = [run_pass(number) for number in range(count)]
    return _combine(runs, key, sampler.clock)


# -- table1 -------------------------------------------------------------------


def _table1_pass(ctx: Context, number: int, trace_dir: Optional[str]) -> dict:
    """One fresh program process: set-up, then one serial pass."""
    out = ctx.path(f"table1-{number}.json")
    argv = [sys.executable, "-m", "pb.program", "batch", "--inputs",
            ctx.inputs_path, "--out", out, "--pass", str(number)]
    if trace_dir:
        argv += ["--trace", trace_dir]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=ctx.env, text=True)
    ready = None
    try:
        for line in proc.stdout:
            if line.strip() == "ready":
                ready = time.perf_counter()
                break
        proc.stdout.read()
        proc.wait()
    finally:
        if proc.poll() is None:  # interrupted: never leave it running
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready is None:
        raise RuntimeError(f"table1 program failed with {proc.returncode}")
    with open(out, encoding="utf-8") as handle:
        outcome = json.load(handle)
    results = outcome["results"]
    graded = [r for r in results if not r["cached"]]
    runs = outcome["runner"]
    return {
        "setup_at": (started, ready),
        "answers": [
            {"sid": r["sid"], "span": r["span"], "record": r["record"]}
            for r in results
        ],
        "timed": outcome["timed"],
        "cpu_s": outcome["cpu_s"],
        "peak_rss_mb": outcome["peak_rss_kb"] / 1024.0,
        "mismatches": [],
        "outcomes": [
            _outcome(r["sid"], r["record"]["status"], r["record"]) for r in results
        ],
        "first_verdicts": [r["record"] for r in results],
        "graded_records": [r["record"] for r in graded],
        "program_counts": {
            "graded": sum(s["graded"] for s in runs),
            "cache_hits": sum(s["cache_hits"] + s["dedup_hits"] for s in runs),
            "triaged": sum(1 for r in graded if r["record"]["status"] == "static"),
        },
        "fixes": _fixes((r["sid"], r["record"]) for r in results),
        "replies": [],
    }


def table1(ctx: Context, trace_dir: Optional[str], count: int) -> dict:
    """``count`` passes, each over the whole corpus."""
    return _session(
        ctx, count, lambda number: _table1_pass(ctx, number, trace_dir),
        key=lambda answer: answer["sid"],
    )


# -- serving ------------------------------------------------------------------


def _start_server(ctx: Context, trace_dir: Optional[str], store: Optional[str]):
    traced = {"inputs": ctx.inputs_path, "trace": trace_dir} if trace_dir else None
    return serving.Server(
        serving.server_argv(ctx.doc["problems"], traced, store), ctx.env
    )


class _Replies:
    """Thread-safe reply collection."""

    def __init__(self):
        self.items: List[serving.Reply] = []
        self.lock = threading.Lock()

    def add(self, reply: serving.Reply) -> None:
        with self.lock:
            self.items.append(reply)


def _decode(replies: List[serving.Reply]) -> List[dict]:
    out = []
    for reply in replies:
        body = {}
        if reply.status == 200:
            body = json.loads(reply.body)
        out.append(
            {
                "rid": reply.rid,
                "sid": reply.sid,
                "span": (reply.started, reply.started + reply.latency_s),
                "latency_s": reply.latency_s,
                "http": reply.status,
                "record": body.get("record") or {},
                "key": body.get("key"),
                "cached": bool(body.get("cached")),
                "deduped": bool(body.get("deduped")),
                "wall_time": body.get("wall_time"),
            }
        )
    return out


def _status(reply: dict) -> str:
    if reply["http"] != 200:
        return f"http_{reply['http']}"
    return reply["record"].get("status", "?")


def _check_hits(decoded: List[dict], first: Dict[str, tuple], mismatches: List[tuple]) -> None:
    """Every answer under a cache key must carry the status and cost of
    the first grading under that key."""
    for reply in decoded:
        if reply["http"] != 200 or reply["key"] is None:
            continue
        verdict = _verdict(reply["record"])
        if reply["key"] not in first:
            first[reply["key"]] = verdict
        elif verdict != first[reply["key"]]:
            mismatches.append((
                reply["rid"],
                f"{reply['rid']} ({reply['sid']}): {verdict} != first grading "
                f"{first[reply['key']]}",
            ))


def _body(doc: dict, sid: str, variant: Optional[int]) -> bytes:
    """The request for ``sid`` as the original (``None``/``-1``) or as
    one of its generated variants."""
    sub = doc["submissions"][sid]
    source = sub["source"] if variant in (None, -1) else sub["variants"][variant]["source"]
    return serving.grade_body(sub["problem"], source, doc["budget_s"])


def _fill(server: serving.Server, ctx: Context, sids: List[str]) -> List[dict]:
    """Grade ``sids`` once each (cache misses)."""
    pending = iter(sids)
    lock = threading.Lock()

    def next_request():
        with lock:
            sid = next(pending, None)
        return None if sid is None else (sid, sid, _body(ctx.doc, sid, None))

    replies = _Replies()
    serving.closed_loop(server.port, next_request, replies.add, clients=FILL_CLIENTS)
    return _decode(replies.items)


def _server_tail(server: serving.Server, trace_dir: Optional[str]) -> dict:
    """``/stats`` counts (cache hits include in-flight dedups), peak RSS
    and (traced) the ``/metrics`` text."""
    stats = server.get_json("/stats")
    out = {
        "program_counts": {
            "graded": stats.get("graded", 0),
            "triaged": stats.get("triaged", 0),
            "cache_hits": stats.get("cache_hits", 0) + stats.get("dedup_hits", 0),
        },
        "peak_rss_mb": server.peak_rss_mb(),
    }
    if trace_dir:
        status, body = server.get("/metrics")
        out["metrics_text"] = body.decode("utf-8") if status == 200 else ""
    return out


def _stream_requests(doc: dict, prefix: str):
    """``next_request`` over the generated stream, request ``<prefix><i>``
    for stream slot ``i``."""
    requests = iter(enumerate(doc["stream"]))
    lock = threading.Lock()

    def next_request():
        with lock:
            index, (sid, variant) = next(requests, (None, (None, None)))
        if index is None:
            return None
        return f"{prefix}{index}", sid, _body(doc, sid, variant)

    return next_request


def _resubmit_pass(ctx: Context, trace_dir: Optional[str]) -> dict:
    """A fresh server: fill its cache (untimed), then send the whole
    resubmission stream."""
    doc = ctx.doc
    server = _start_server(ctx, trace_dir, None)
    try:
        filled = _fill(server, ctx, doc["fill"])
        first: Dict[str, tuple] = {}
        mismatches: List[tuple] = []
        _check_hits(filled, first, mismatches)
        key_of = {reply["sid"]: reply["key"] for reply in filled}
        replies = _Replies()
        cpu_start = server.cpu_s()
        started = time.perf_counter()
        serving.closed_loop(
            server.port,
            _stream_requests(doc, "r"),
            replies.add,
            clients=RESUBMIT_CLIENTS,
        )
        ended = time.perf_counter()
        cpu = server.cpu_s() - cpu_start
        tail = _server_tail(server, trace_dir)
    finally:
        server.stop()
    timed = _decode(replies.items)
    for reply in timed:
        if reply["http"] == 200 and not reply["cached"]:
            mismatches.append(
                (reply["rid"], f"{reply['rid']} ({reply['sid']}): not a cache hit")
            )
        elif reply["http"] == 200 and reply["key"] != key_of.get(reply["sid"]):
            mismatches.append((
                reply["rid"],
                f"{reply['rid']} ({reply['sid']}): served under another key",
            ))
    _check_hits(timed, first, mismatches)
    return {
        "setup_at": server.setup_at,
        "answers": timed,
        "timed": [(started, ended)],
        "cpu_s": cpu,
        "mismatches": mismatches,
        "outcomes": [_outcome(r["rid"], _status(r), r["record"]) for r in filled + timed],
        "first_verdicts": [r["record"] for r in filled],
        "graded_records": [r["record"] for r in filled if not r["cached"]],
        "fixes": _fixes((r["sid"], r["record"]) for r in filled),
        "replies": filled + timed,
        **tail,
    }


def resubmit(ctx: Context, trace_dir: Optional[str], count: int) -> dict:
    """``count`` fresh servers, each sent the whole stream; request
    ``r<i>`` is the same resubmission in every pass."""
    return _session(
        ctx, count, lambda _: _resubmit_pass(ctx, trace_dir),
        key=lambda answer: answer["rid"],
    )


def _classroom_pass(ctx: Context, number: int, trace_dir: Optional[str]) -> dict:
    """A fresh server with an empty store log, fed the whole stream."""
    doc = ctx.doc
    stream = doc["stream"]
    store = ctx.path(f"store-{bool(trace_dir)}-{number}.jsonl")
    server = _start_server(ctx, trace_dir, store)
    replies = _Replies()
    try:
        cpu_start = server.cpu_s()
        started = time.perf_counter()
        serving.closed_loop(
            server.port,
            _stream_requests(doc, "c"),
            replies.add,
            clients=CLASSROOM_CLIENTS,
        )
        ended = time.perf_counter()
        cpu = server.cpu_s() - cpu_start
        tail = _server_tail(server, trace_dir)
    finally:
        server.stop()
    decoded = sorted(_decode(replies.items), key=lambda r: int(r["rid"][1:]))
    mismatches: List[tuple] = []
    _check_hits(decoded, {}, mismatches)
    firsts = [r for r in decoded if stream[int(r["rid"][1:])][1] is None]
    tail["store_bytes"] = os.path.getsize(store) if os.path.exists(store) else 0
    return {
        "setup_at": server.setup_at,
        "answers": decoded,
        "timed": [(started, ended)],
        "cpu_s": cpu,
        "mismatches": mismatches,
        "outcomes": [_outcome(r["rid"], _status(r), r["record"]) for r in decoded],
        "first_verdicts": [r["record"] for r in firsts],
        "graded_records": [
            r["record"] for r in decoded if not r["cached"] and not r["deduped"]
        ],
        "fixes": _fixes((r["sid"], r["record"]) for r in firsts),
        "replies": decoded,
        **tail,
    }


def classroom(ctx: Context, trace_dir: Optional[str], count: int) -> dict:
    """``count`` fresh servers, each sent the whole stream."""
    return _session(
        ctx, count, lambda number: _classroom_pass(ctx, number, trace_dir),
        key=lambda answer: answer["rid"],
    )


SESSIONS = {"table1": table1, "resubmit": resubmit, "classroom": classroom}
