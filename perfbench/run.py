"""Benchmark entry point for the feedback generator.

    python3 perfbench/run.py --workload {table1,resubmit,classroom,all}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Each run generates its inputs from the
seed (``pb.gen``, own process), starts fresh program processes, measures
one workload, checks every output (``pb.gate`` plus the cache-hit and
ledger checks) and prints a report followed, as the last line, by one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, from a traced session that follows an untraced one
(their throughput ratio is the tracing overhead). A workload pass is a
fixed unit of work of about ten seconds; a run makes ``--seconds`` / 10
of them (at least one). ``--workload all`` runs the three in turn.
The whole run is on one CPU, and every time it reports is read off a
speed-corrected clock (``pb.clock``). Scratch files live under
``.perfbench/`` in the checkout. See perfbench/README.md for what each
workload measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

from pb import report, workloads
from pb.clock import REFERENCE_S

WORKLOADS = ("table1", "resubmit", "classroom")


def _run_module(env: dict, *args: str) -> None:
    subprocess.run([sys.executable, "-m", *args], env=env, check=True)


def _gate(ctx: workloads.Context, fixes: list) -> dict:
    records = ctx.path("fixes.json")
    out = ctx.path("gate.json")
    with open(records, "w", encoding="utf-8") as handle:
        json.dump(fixes, handle)
    _run_module(ctx.env, "pb.gate", "--records", records, "--out", out)
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def code_digest(root: str) -> str:
    """Digest of everything the exact counts depend on: every file under
    the checkout's ``src/`` (code and problem data) and the benchmark's
    own modules, bytecode caches left out."""
    digest = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    for top in (os.path.join(root, "src"), os.path.join(here, "pb")):
        for folder, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, os.path.dirname(top)).encode())
                with open(path, "rb") as handle:
                    digest.update(b"\0" + handle.read() + b"\0")
    return digest.hexdigest()[:16]


def _ledger_path(root: str, workload: str, seed: int) -> str:
    """Where a correct run of this code, workload and seed keeps its
    exact counts; runs of other code never read it."""
    return os.path.join(
        root, ".perfbench", "ledger", f"{workload}-{seed}-{code_digest(root)}.json"
    )


def _repeat(path: str, exact: dict) -> str:
    """Compare the exact counts with those of an earlier correct run of
    the same code, workload and seed; empty when they agree or there is
    none."""
    if not os.path.exists(path):
        return ""
    with open(path, encoding="utf-8") as handle:
        previous = json.load(handle)
    if previous == exact:
        return ""
    changed = sorted(
        k for k in set(exact) | set(previous) if exact.get(k) != previous.get(k)
    )
    return f"ledger differs from an earlier run of the same code: {changed}"


def _keep(path: str, exact: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(exact, handle, sort_keys=True)


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One measured workload: returns the result object and prints the
    human-readable report."""
    work = os.path.join(root, ".perfbench", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        inputs = os.path.join(work, "inputs.json")
        env = workloads.program_env(root)
        _run_module(env, "pb.gen", "--workload", workload, "--seed", str(seed), "--out", inputs)
        with open(inputs, encoding="utf-8") as handle:
            doc = json.load(handle)
        ctx = workloads.Context(root, work, inputs, doc)
        session_of = workloads.SESSIONS[workload]
        if trace:
            trace_dir = ctx.path("trace")
            os.makedirs(trace_dir)
            sessions = [session_of(ctx, None, 1), session_of(ctx, trace_dir, 1)]
        else:
            sessions = [session_of(ctx, None, workloads.passes(seconds))]
        session = sessions[-1]
        gate = _gate(ctx, [fix for s in sessions for fix in s["fixes"]])
        problems = [message for s in sessions for _, message in s["mismatches"]]
        problems += [
            f"{f['sid']}: fixed_source is {f['verdict']} on interp" for f in gate["failures"]
        ]
        ledger = report.ledger(session)
        if any(report.ledger(s)["exact"] != ledger["exact"] for s in sessions[:-1]):
            problems.append("ledger differs between the untraced and traced sessions")
        ledger_path = _ledger_path(root, workload, seed)
        differs = _repeat(ledger_path, ledger["exact"])
        if differs:
            problems.append(differs)
        if trace:
            processes, missing = report.load_spans(trace_dir)
            problems += [f"not traced: {target}" for target in missing]
            problems += [
                f"no {name} span recorded: its wrapper no longer reaches the layer"
                for name in report.silent_layers(processes, workload)
            ]
        wrong = {rid for s in sessions for rid, _ in s["mismatches"] if rid is not None}
        bad_fixes = {(f["problem"], f["fixed_source"]) for f in gate["failures"]}
        ok = report.ok_count(session, wrong, bad_fixes)
        e2e = report.end_to_end(workload, session, ok)
        if trace:
            values = report.per_layer(
                processes, session, sessions[0]["subs_per_s"], session["subs_per_s"]
            )
            units = dict(report.PER_LAYER)
        else:
            values = {name: e2e[name] for name, _ in report.END_TO_END}
            units = dict(report.END_TO_END)
        _print_report(workload, doc, session, e2e, ledger, gate, problems, values, units, trace)
        if not problems:
            _keep(ledger_path, ledger["exact"])
        attempted = len(session["outcomes"])
        # A problem no single request carries (say a ledger that does not
        # repeat) still fails the run.
        failed = attempted - ok or int(bool(problems))
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in values.items()
                if name not in report.PRINTED_ONLY
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_report(workload, doc, session, e2e, ledger, gate, problems, values, units, trace):
    props = doc["properties"]
    print(
        f"== {workload} (seed {doc['seed']}, budget {doc['budget_s']:g} s, "
        f"{session['passes']} pass(es), {len(session['latencies'])} timed "
        f"submissions) =="
    )
    print("inputs: " + json.dumps(props, sort_keys=True))
    notes = {
        "setup_s": f"median of {len(session['setup_s'])} start(s)",
        "tail_ms": f"p{100 * e2e['tail_q']:g} of {e2e['tail_n']} samples",
        "fix_rate": "fixed / distinct submissions answered",
        "ok_frac": f"definitive and not wrong / {len(session['outcomes'])} requests",
    }
    label = "per-layer (traced session)" if trace else "end-to-end (tracing off)"
    print(f"{label}:")
    print(
        report.format_table(
            [(name, value, units[name], notes.get(name, "")) for name, value in values.items()]
        )
    )
    if trace:
        print(
            f"  traced subs_per_s {e2e['subs_per_s']:.6g} 1/s, tail "
            f"p{100 * e2e['tail_q']:g} {e2e['tail_ms']:.6g} ms"
        )
    print(
        f"gate: {gate['checked']} distinct fixes re-checked on the interp backend, "
        f"{len(gate['failures'])} not equivalent; {len(session['mismatches'])} "
        "cache-hit/repeat mismatches"
    )
    print(
        f"clock: {session['clock_scale']:.4g} virtual s per wall s of the timed "
        f"phase; loop median {session['loop_ms']:.4g} ms (reference "
        f"{1000 * REFERENCE_S:g} ms)"
    )
    print("ledger (exact): " + json.dumps(ledger["exact"], sort_keys=True))
    bound = ledger["budget_bound"]
    share = bound["wall_s"] / session["wall_s"] if session["wall_s"] else 0.0
    print(
        f"budget-bound solves: {bound['count']}, {bound['wall_s']:.2f} s "
        f"({100 * share:.1f}% of the timed phase)"
    )
    for problem in problems[:20]:
        print(f"FAIL: {problem}")
    print("correct: " + ("yes" if not problems else f"NO ({len(problems)} problems)"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(
            "perfbench: no program here (src/repro); run from the root of a "
            "checkout",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # One CPU for every process of the run: program, clock sampler and
    # load generator inherit it. The sampler then sees the CPU the
    # program runs on, and no process of the run slows another from a
    # sibling CPU (two vCPUs of the box may share a physical core).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Stopped from outside: unwind, so every process started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # Byte-compile once so no timed start-up pays for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=root,
        stdout=subprocess.DEVNULL,
    )
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {
        name: run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
