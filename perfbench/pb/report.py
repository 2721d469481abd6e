"""Metrics from one session's observations: the eight end-to-end
metrics, the exact-count ledger, and (traced runs) the per-layer
metrics computed from the span files."""

from __future__ import annotations

import glob
import json
import statistics
from collections import defaultdict
from typing import Dict, List, Set, Tuple

from pb import serving, stats
from pb.workloads import DEFINITIVE, TAIL

#: ``(name, unit)`` of the end-to-end metrics, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("subs_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("fix_rate", "fraction"),
    ("ok_frac", "fraction"),
    ("peak_rss_mb", "MB"),
    ("cpu_ms_per_sub", "ms"),
)

#: Engine counters the ledger sums, from each graded record's
#: ``metrics.engine``.
ENGINE_COUNTS = (
    "sat_calls",
    "sat_propagations",
    "sat_conflicts",
    "candidate_runs",
    "table_leaves",
    "blocked_cubes",
    "iterations",
)


def ok_count(session: dict, wrong: Set[str], bad_fixes: Set[tuple]) -> int:
    """Requests answered with a definitive verdict that is not wrong: not
    named by a cache-hit or repeat check (``wrong``) and not a fix the
    gate rejected (``bad_fixes``, ``(problem, fixed_source)`` pairs)."""
    return sum(
        1
        for request_id, status, fix in session["outcomes"]
        if status in DEFINITIVE and request_id not in wrong and fix not in bad_fixes
    )


def end_to_end(workload: str, session: dict, ok: int) -> dict:
    """``name -> value`` plus ``tail_q``/``tail_n`` for printing; ``ok``
    is the session's :func:`ok_count`."""
    latencies = sorted(session["latencies"])
    q, tail_value, n = stats.tail(latencies, TAIL[workload])
    firsts = session["first_verdicts"]
    answered = [r for r in firsts if r.get("status")]
    return {
        "setup_s": statistics.median(session["setup_s"]),
        "subs_per_s": session["subs_per_s"],
        "p50_ms": 1000.0 * stats.percentile(latencies, 0.5),
        "tail_ms": 1000.0 * tail_value,
        "fix_rate": sum(1 for r in answered if r["status"] == "fixed")
        / max(1, len(answered)),
        "ok_frac": ok / len(session["outcomes"]),
        "peak_rss_mb": session["peak_rss_mb"],
        "cpu_ms_per_sub": session["cpu_ms_per_sub"],
        "tail_q": q,
        "tail_n": n,
    }


def ledger(session: dict) -> dict:
    """Exact counts: engine counters summed over gradings that finished
    inside their budget, the program's own graded/cache-hit/triaged
    counts, and budget-bound gradings reported on their own."""
    sums = dict.fromkeys(ENGINE_COUNTS, 0)
    in_budget = 0
    bound = {"count": 0, "wall_s": 0.0}
    for record in session["graded_records"]:
        engine = (record.get("metrics") or {}).get("engine")
        if record.get("status") == "timeout":
            bound["count"] += 1
            bound["wall_s"] += record.get("wall_time") or 0.0
            continue
        in_budget += 1
        for key in ENGINE_COUNTS:
            sums[key] += int((engine or {}).get(key, 0))
    return {
        "exact": {"in_budget_gradings": in_budget, **sums, **session["program_counts"]},
        "budget_bound": bound,
    }


# -- per-layer ----------------------------------------------------------------

#: ``(name, unit)`` of the per-layer metrics, in print order. ``/sub``
#: units are per submission answered in the traced session (set-up
#: excluded, cache fill included).
PER_LAYER = (
    ("sat.calls", "1/sub"),
    ("sat.self_ms", "ms/sub"),
    ("sat.propagations", "1/sub"),
    ("sat.conflicts", "1/sub"),
    ("sat.yield_frac", "fraction"),
    ("engines.self_ms", "ms/sub"),
    ("engines.iterations", "1/sub"),
    ("engines.budget_s", "s"),
    ("encoding.self_ms", "ms/sub"),
    ("encoding.blocked_cubes", "1/sub"),
    ("verify.calls", "1/sub"),
    ("verify.self_ms", "ms/sub"),
    ("verify.cex_frac", "fraction"),
    ("explore.calls", "1/sub"),
    ("explore.self_ms", "ms/sub"),
    ("explore.table_leaves", "1/sub"),
    ("explore.failing_frac", "fraction"),
    ("exec.runs", "1/sub"),
    ("exec.self_ms", "ms/sub"),
    ("exec.fuel", "1/sub"),
    ("mpy.parse_ms", "ms/sub"),
    ("core.rewrite_ms", "ms/sub"),
    ("core.render_ms", "ms/sub"),
    ("analysis.triage_ms", "ms/sub"),
    ("analysis.static_frac", "fraction"),
    ("canonical.calls", "1/sub"),
    ("canonical.self_ms", "ms/sub"),
    ("cache.gets", "1/sub"),
    ("cache.hit_frac", "fraction"),
    ("cache.get_ms", "ms/sub"),
    ("cache.puts", "1/sub"),
    ("cache.put_ms", "ms/sub"),
    ("store.flush_ms", "ms/sub"),
    ("store.bytes", "bytes"),
    ("runner.self_ms", "ms/sub"),
    ("runner.dedup_frac", "fraction"),
    ("server.service_ms", "ms"),
    ("server.http_ms", "ms"),
    ("server.queue_ms", "ms"),
    ("server.pipe_ms", "ms"),
    ("warm.self_s", "s"),
    ("warm.verifier_inputs", "count"),
    ("trace.overhead_frac", "fraction"),
)


#: Printed in the report but left out of the result object (and of
#: BENCHMARK.json): no workload has a budget-bound solve, so it is 0.0
#: on every run and no change could move it without failing `ok_frac`.
PRINTED_ONLY = frozenset({"engines.budget_s"})


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Span names each workload's traced session must record. A layer the
#: workload loads but that recorded no span is no longer reached by its
#: wrapper (say a caller now imports the call under another name), and
#: its metrics would read zero as if the layer had become free.
TRACED_LAYERS = {
    "table1": (
        "sat", "engines", "encoding", "verify", "explore", "explore.verdict",
        "exec", "mpy.parse", "core.rewrite", "core.render", "core.grade",
        "analysis.triage", "canonical", "cache.get", "cache.put", "runner",
        "warm",
    ),
    "resubmit": (
        "sat", "engines", "encoding", "verify", "explore", "explore.verdict",
        "exec", "mpy.parse", "core.rewrite", "core.render", "core.grade",
        "analysis.triage", "canonical", "cache.get", "cache.put", "server",
        "warm", "warm.registry",
    ),
    "classroom": (
        "sat", "engines", "encoding", "verify", "explore", "explore.verdict",
        "exec", "mpy.parse", "core.rewrite", "core.render", "core.grade",
        "analysis.triage", "canonical", "cache.get", "cache.put",
        "store.flush", "server", "warm", "warm.registry",
    ),
}


def load_spans(trace_dir: str) -> Tuple[List[List[list]], List[str]]:
    """One span list per process that wrote a span file, and the targets
    any of them could not wrap."""
    processes: List[List[list]] = []
    missing: Set[str] = set()
    for path in sorted(glob.glob(f"{trace_dir}/spans-*.json")):
        with open(path, encoding="utf-8") as handle:
            dumped = json.load(handle)
        processes.append(dumped["spans"])
        missing.update(dumped["missing"])
    return processes, sorted(missing)


def silent_layers(processes: List[List[list]], workload: str) -> List[str]:
    """The workload's :data:`TRACED_LAYERS` that recorded no span."""
    seen = {span[2] for spans in processes for span in spans}
    return [name for name in TRACED_LAYERS[workload] if name not in seen]


def per_layer(
    processes: List[List[list]],
    session: dict,
    untraced_subs_per_s: float,
    traced_subs_per_s: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced session."""
    self_ms: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    attrs: Dict[str, float] = defaultdict(float)
    wall_ms: Dict[str, float] = defaultdict(float)
    for spans in processes:
        selves = stats.self_times(spans)
        names = {span[0]: span[2] for span in spans}
        for span_id, parent, name, start, end, _rid, extra in spans:
            self_ms[name] += 1000.0 * selves[span_id]
            nested = parent is not None and names.get(parent) == name
            if not nested:
                calls[name] += 1
                wall_ms[name] += 1000.0 * (end - start)
            for key, value in (extra or {}).items():
                if key == "status":
                    if value == "timeout":
                        attrs["engines.budget_s"] += end - start
                elif not nested:
                    attrs[f"{name}.{key}"] += value
    replies = session["replies"]
    subs = len(replies) or len(session["latencies"])

    def per_sub(value: float) -> float:
        return value / subs

    misses = [r for r in replies if r["http"] == 200 and not r["cached"] and not r["deduped"]]
    served = [r for r in replies if r["http"] == 200 and r["wall_time"] is not None]
    queue_ms = serving.histogram_mean_ms(
        session.get("metrics_text", ""),
        "repro_grading_stage_seconds",
        {"stage": "queue_wait"},
    )
    verdict_leaves = attrs["explore.leaves"]
    return {
        "sat.calls": per_sub(calls["sat"]),
        "sat.self_ms": per_sub(self_ms["sat"]),
        "sat.propagations": per_sub(attrs["sat.propagations"]),
        "sat.conflicts": per_sub(attrs["sat.conflicts"]),
        "sat.yield_frac": _ratio(attrs["sat.sat"], calls["sat"]),
        "engines.self_ms": per_sub(self_ms["engines"]),
        "engines.iterations": per_sub(attrs["engines.iterations"]),
        "engines.budget_s": attrs["engines.budget_s"],
        "encoding.self_ms": per_sub(self_ms["encoding"]),
        "encoding.blocked_cubes": per_sub(calls["encoding"]),
        "verify.calls": per_sub(calls["verify"]),
        "verify.self_ms": per_sub(self_ms["verify"]),
        "verify.cex_frac": _ratio(attrs["verify.cex"], calls["verify"]),
        "explore.calls": per_sub(calls["explore"]),
        "explore.self_ms": per_sub(self_ms["explore"] + self_ms["explore.verdict"]),
        "explore.table_leaves": per_sub(verdict_leaves),
        "explore.failing_frac": _ratio(attrs["explore.verdict.failing"], verdict_leaves),
        "exec.runs": per_sub(calls["exec"]),
        "exec.self_ms": per_sub(self_ms["exec"]),
        "exec.fuel": per_sub(attrs["exec.fuel"]),
        "mpy.parse_ms": per_sub(self_ms["mpy.parse"]),
        "core.rewrite_ms": per_sub(self_ms["core.rewrite"]),
        "core.render_ms": per_sub(self_ms["core.render"]),
        "analysis.triage_ms": per_sub(self_ms["analysis.triage"]),
        "analysis.static_frac": _ratio(attrs["analysis.triage.static"], calls["analysis.triage"]),
        "canonical.calls": per_sub(calls["canonical"]),
        "canonical.self_ms": per_sub(self_ms["canonical"]),
        "cache.gets": per_sub(calls["cache.get"]),
        "cache.hit_frac": _ratio(attrs["cache.get.hit"], calls["cache.get"]),
        "cache.get_ms": per_sub(self_ms["cache.get"]),
        "cache.puts": per_sub(calls["cache.put"]),
        "cache.put_ms": per_sub(self_ms["cache.put"]),
        "store.flush_ms": per_sub(self_ms["store.flush"]),
        "store.bytes": float(session.get("store_bytes", 0)),
        "runner.self_ms": per_sub(self_ms["runner"]),
        "runner.dedup_frac": _ratio(attrs["runner.dedup"], attrs["runner.total"]),
        "server.service_ms": _ratio(wall_ms["server"], calls["server"]),
        "server.http_ms": _ratio(
            sum(1000.0 * (r["latency_s"] - r["wall_time"]) for r in served), len(served)
        ),
        "server.queue_ms": queue_ms,
        "server.pipe_ms": _ratio(
            sum(
                1000.0 * (r["wall_time"] - (r["record"].get("wall_time") or 0.0))
                for r in misses
            ),
            len(misses),
        ),
        "warm.self_s": (self_ms["warm"] + self_ms["warm.registry"]) / 1000.0,
        "warm.verifier_inputs": attrs["warm.inputs"],
        "trace.overhead_frac": 1.0 - _ratio(traced_subs_per_s, untraced_subs_per_s),
    }


def format_table(rows: List[tuple]) -> str:
    """``(name, value, unit, note)`` rows as aligned text."""
    width = max(len(row[0]) for row in rows)
    return "\n".join(
        f"  {name:<{width}}  {value:>14.6g} {unit:<9} {note}".rstrip()
        for name, value, unit, note in rows
    )


