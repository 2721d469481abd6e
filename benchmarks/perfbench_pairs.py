"""Alternating parent/change pairs of the repository benchmark, summarized
into a committed, stamped ``BENCH_perfbench.json``.

    PYTHONPATH=src python -m benchmarks.perfbench_pairs --log runs.jsonl \\
        --parent DIR --change DIR --workload resubmit --seeds 2901-2910
    PYTHONPATH=src python -m benchmarks.perfbench_pairs --log runs.jsonl \\
        --out BENCH_perfbench.json

Run from the root of a checkout. ``--parent`` and ``--change`` are two
checkouts (say ``git archive`` copies of the two trees). Each seed is a
pair: ``perfbench/run.py --workload W --seed N --seconds S --trace 0``
runs once in each checkout, the parent first on the first seed and the
side that runs first alternating after it, and each run appends one
JSON line to ``--log``. ``--out`` summarizes every run in the log, per
workload and end-to-end metric of ``BENCHMARK.json``: the median and
quartiles of each side, the change in the median, and in how many pairs
the change was better, with every run's value in seed order, whether
every run was correct with nothing failed, and whether each seed's
exact-count ledger is the same on both sides. The file is stamped with
the git revision of this checkout, the Python version, the CPU count,
the seeds and ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List

from benchmarks.conftest import run_stamp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def run_pairs(log: str, checkouts: Dict[str, str], workload: str,
              seeds: List[int], seconds: float) -> None:
    with open(log, "a", encoding="utf-8") as out:
        for index, seed in enumerate(seeds):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            for side in order:
                started = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", "0"],
                    cwd=checkouts[side], capture_output=True, text=True,
                )
                lines = proc.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    result = {"correct": False,
                              "error": (proc.stdout + proc.stderr)[-2000:]}
                ledger = next(
                    (line for line in lines if line.startswith("ledger (exact)")),
                    None,
                )
                out.write(json.dumps({
                    "workload": workload, "seed": seed, "side": side,
                    "seconds": seconds, "ledger": ledger,
                    "wall_s": round(time.monotonic() - started, 1),
                    "result": result,
                }) + "\n")
                out.flush()


def _round(value: float) -> float:
    return float(f"{value:.6g}")


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": _round(median), "q1": _round(q1), "q3": _round(q3)}


def summarize(log: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    runs: Dict[str, Dict[int, Dict[str, dict]]] = defaultdict(dict)
    seconds = set()
    with open(log, encoding="utf-8") as handle:
        for line in handle:
            run = json.loads(line)
            runs[run["workload"]].setdefault(run["seed"], {})[run["side"]] = run
            seconds.add(run["seconds"])
    summary: dict = {
        "what": "alternating parent/change pairs of `perfbench/run.py "
        "--workload W --seed N --seconds S --trace 0`; the parent is the "
        "commit git_rev names, the change its working tree",
        **run_stamp(),
        "seconds": sorted(seconds),
        "workloads": {},
    }
    for workload, by_seed in sorted(runs.items()):
        pairs = {seed: sides for seed, sides in sorted(by_seed.items())
                 if set(sides) == set(SIDES)}
        every = [run for sides in pairs.values() for run in sides.values()]
        entry: dict = {
            "seeds": sorted(pairs),
            "pairs": len(pairs),
            "all_correct": all(
                run["result"].get("correct") is True
                and run["result"].get("failed") == 0 for run in every
            ),
            "ledgers_equal": all(
                sides["parent"]["ledger"] is not None
                and sides["parent"]["ledger"] == sides["change"]["ledger"]
                for sides in pairs.values()
            ),
            "metrics": {},
        }
        for metric in metrics:
            name = metric["name"]
            values = {
                side: [sides[side]["result"]["metrics"][name]["value"]
                       for sides in pairs.values()]
                for side in SIDES
            }
            higher = metric["better"] == "higher"
            better = sum(
                (change > parent) if higher else (change < parent)
                for parent, change in zip(values["parent"], values["change"])
            )
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": parent,
                "change": change,
                "median_delta": _round(
                    (change["median"] - parent["median"]) / parent["median"]
                    if parent["median"] else 0.0
                ),
                "change_better_pairs": better,
                "values": {side: [_round(value) for value in values[side]]
                           for side in SIDES},
            }
        summary["workloads"][workload] = entry
    return summary


def _seeds(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--log", required=True, help="JSONL log of every run")
    parser.add_argument("--parent", help="checkout of the parent tree")
    parser.add_argument("--change", help="checkout of the changed tree")
    parser.add_argument("--workload", choices=("table1", "resubmit", "classroom"))
    parser.add_argument("--seeds", type=_seeds, help="N or FIRST-LAST")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", help="write the summary here")
    args = parser.parse_args(argv)
    if args.parent or args.change:
        if not (args.parent and args.change and args.workload and args.seeds):
            parser.error("running pairs takes --parent, --change, --workload "
                         "and --seeds")
        run_pairs(args.log, {"parent": args.parent, "change": args.change},
                  args.workload, args.seeds, args.seconds)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summarize(args.log), handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
