"""Seeded input generator for the three benchmark workloads.

Runs in its own process, before any program process starts, and writes
one JSON file; the program only ever receives what is in that file. The
same ``--seed`` gives a byte-identical file.

The corpus is fixed: the studentgen corpora of :data:`PROBLEMS` at
:data:`CORPUS_SEED`, :data:`CORPUS_SIZE` incorrect submissions each. So
is the popularity of every submission (:func:`popularity`). The
workload seed decides everything drawn *from* those: the grading orders
(``table1``, one per pass), the sequence of resubmissions
(``resubmit``) and the arrival stream (``classroom``), including which
resubmissions are byte-identical and which are α-renamed or
re-commented variants. Keeping the corpus and the popularity fixed
keeps the work a run measures the same on every seed, so run-to-run
spread is the machine's, not the corpus's: with a seeded popularity,
the seed chose which submission took a quarter of the hits, and hit
throughput moved with that submission's size (seeds that favoured a
short one served 20% more hits per second in both of two sets of
runs). For the same reason each ``classroom`` submission recurs a fixed
number of times (:func:`resubmit_counts`); the seed decides when, and in
which form. With the counts drawn per seed, ``classroom`` p50 latency,
which falls among the hits, spread 0.10-0.16 over five seeds.

Usage: ``python3 -m pb.gen --workload classroom --seed 3 --out FILE``
(with ``perfbench`` and ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import ast
import bisect
import io
import json
import keyword
import random
import tokenize
from collections import Counter
from typing import Dict, List, Optional

from repro.problems import get_problem
from repro.studentgen import generate_corpus

#: Table 1 problems every workload draws from. Left out, with the
#: reason: ``compDeriv-6.00``/``compDeriv-6.00x`` (single solves of
#: 7-10 s, within noise of any budget that fits one run), ``prodBySum-6.00``
#: (solves that run past 12 s) and the three C# rows (5 of 24 submissions
#: budget-bound at 10 s). See perfbench/README.md.
PROBLEMS = (
    "oddTuples-6.00",
    "evalPoly-6.00",
    "compBal-stdin-6.00",
    "evalPoly-6.00x",
    "oddTuples-6.00x",
    "iterPower-6.00x",
    "recurPower-6.00x",
    "iterGCD-6.00x",
    "hangman1-str-6.00x",
    "hangman2-str-6.00x",
)

#: The ``resubmit`` pool: the problems whose corpora grade in well under
#: a second each, so filling the cache stays a small part of a run.
POOL_PROBLEMS = (
    "evalPoly-6.00",
    "evalPoly-6.00x",
    "oddTuples-6.00x",
    "iterPower-6.00x",
    "iterGCD-6.00x",
    "hangman1-str-6.00x",
    "hangman2-str-6.00x",
)

CORPUS_SEED = 0
CORPUS_SIZE = 5

#: Per-submission solver budget sent with every request. The slowest
#: corpus solve takes about 2.5 s on a 2-vCPU box, so no verdict sits
#: near the budget.
BUDGET_S = 10.0

ZIPF_S = 1.2
#: Share of resubmissions sent byte-identical to the original.
IDENTICAL_SHARE = 0.5
#: ``classroom``: resubmissions per request (hit share of the stream).
CLASSROOM_HIT_SHARE = 0.76
#: ``table1``: grading orders written, one per pass. A submission's
#: place in the order decides which fixed costs land on it (the first of
#: each problem's batch also pays for canonicalizing the batch), so each
#: pass grades in its own order and a submission's median over passes
#: does not depend on where the seed put it.
TABLE1_ORDERS = 3
#: ``resubmit``: requests in the stream, all of which every pass sends
#: (eight to ten seconds of hits on a 2-vCPU box).
RESUBMIT_STREAM = 8000
#: Distinct variants kept per submission (α-renamed + re-commented).
VARIANTS_PER_SOURCE = 4

WORKLOADS = ("table1", "resubmit", "classroom")


def corpus(problems=PROBLEMS) -> Dict[str, dict]:
    """``sid -> {"problem", "source", "origin"}`` for the fixed corpus."""
    out: Dict[str, dict] = {}
    for name in problems:
        generated = generate_corpus(
            get_problem(name), incorrect_count=CORPUS_SIZE, seed=CORPUS_SEED
        )
        for index, submission in enumerate(generated.incorrect):
            out[f"{name}#{index:02d}"] = {
                "problem": name,
                "source": submission.source,
                "origin": submission.origin,
            }
    return out


# -- variants -----------------------------------------------------------------


def _local_names(fn: ast.FunctionDef) -> Optional[List[str]]:
    """Parameters and assigned locals the program's canonicalizer renames,
    in first-occurrence order; ``None`` when renaming is not safe."""
    names = [arg.arg for arg in fn.args.args]
    unsafe = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            return None
        if node is not fn and isinstance(
            node, (ast.FunctionDef, ast.Lambda, ast.ClassDef)
        ):
            return None
        if isinstance(node, ast.comprehension):
            unsafe.update(
                n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)
            )
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.For)):
            targets = [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and sub.id not in names:
                    names.append(sub.id)
    if unsafe.intersection(names):
        return None
    return names


class _Renamer(ast.NodeTransformer):
    def __init__(self, mapping: Dict[str, str]):
        self.mapping = mapping

    def visit_Name(self, node: ast.Name) -> ast.Name:
        node.id = self.mapping.get(node.id, node.id)
        return node

    def visit_arg(self, node: ast.arg) -> ast.arg:
        node.arg = self.mapping.get(node.arg, node.arg)
        return node


def _renameable(tree: ast.Module) -> Optional[List[str]]:
    """Names that are a parameter or assigned local in every function
    that mentions them and appear nowhere else, in first-occurrence
    order; ``None`` when some function cannot be renamed safely."""
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    outside = {
        n.id
        for top in tree.body
        if not isinstance(top, ast.FunctionDef)
        for n in ast.walk(top)
        if isinstance(n, ast.Name)
    }
    order: List[str] = []
    bad = outside | {fn.name for fn in functions}
    for fn in functions:
        local = _local_names(fn)
        if local is None:
            return None
        mentioned = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        bad |= mentioned - set(local)
        order.extend(name for name in local if name not in order)
    return [name for name in order if name not in bad]


def alpha_rename(source: str, rng: random.Random) -> Optional[str]:
    """``source`` with function parameters and assigned locals renamed;
    ``None`` when the submission has nothing safe to rename."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None
    names = _renameable(tree)
    if not names:
        return None
    taken = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    taken |= {n.arg for n in ast.walk(tree) if isinstance(n, ast.arg)}
    mapping: Dict[str, str] = {}
    for name in names:
        while True:
            letter = rng.choice("abcdefghkmnpqrstuvwxyz")
            fresh = f"{name}_{letter}{rng.randrange(100)}"
            if fresh not in taken and not keyword.iskeyword(fresh):
                break
        taken.add(fresh)
        mapping[name] = fresh
    lines = source.splitlines(keepends=True)
    edits = []
    previous = None
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if (
            token.type == tokenize.NAME
            and token.string in mapping
            and not (previous is not None and previous.string == ".")
        ):
            edits.append(token)
        if token.type not in (tokenize.NL, tokenize.COMMENT):
            previous = token
    for token in reversed(edits):
        row, col = token.start
        line = lines[row - 1]
        lines[row - 1] = (
            line[:col] + mapping[token.string] + line[col + len(token.string):]
        )
    renamed = "".join(lines)
    # The variant must be the same program up to the renaming.
    back = _Renamer({new: old for old, new in mapping.items()})
    if ast.dump(back.visit(ast.parse(renamed))) != ast.dump(ast.parse(source)):
        return None
    return renamed


_COMMENTS = (
    "fixed the loop?",
    "try again",
    "TODO check edge case",
    "second attempt",
    "not sure about this",
    "edge case",
)


def recomment(source: str, rng: random.Random) -> str:
    """``source`` with a header comment and trailing comments on some
    logical lines; the parsed program is unchanged."""
    ends = [
        token.start
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.NEWLINE and token.string
    ]
    lines = source.splitlines(keepends=True)
    for row, col in reversed(ends):
        if rng.random() < 0.4:
            line = lines[row - 1]
            lines[row - 1] = f"{line[:col]}  # {rng.choice(_COMMENTS)}{line[col:]}"
    header = f"# attempt {rng.randrange(2, 9)}: {rng.choice(_COMMENTS)}\n"
    commented = header + "".join(lines)
    if ast.dump(ast.parse(commented)) != ast.dump(ast.parse(source)):
        raise ValueError("re-commenting changed the program")
    return commented


def variants(source: str, rng: random.Random) -> List[dict]:
    """:data:`VARIANTS_PER_SOURCE` distinct ``{"kind", "source"}``
    variants of ``source``: α-renamed ones first (none when nothing can
    be renamed safely), re-commented ones for the rest."""
    out: List[dict] = []
    texts = set()
    for _ in range(VARIANTS_PER_SOURCE // 2):
        renamed = alpha_rename(source, rng)
        if renamed is not None and renamed not in texts:
            texts.add(renamed)
            out.append({"kind": "renamed", "source": renamed})
    while len(out) < VARIANTS_PER_SOURCE:
        commented = recomment(source, rng)
        if commented not in texts:
            texts.add(commented)
            out.append({"kind": "recommented", "source": commented})
    return out


# -- streams ------------------------------------------------------------------


class _Zipf:
    """Truncated zipf(s) rank draws: P(rank r) ∝ r^-s over ranks 1..k."""

    def __init__(self, n: int, s: float = ZIPF_S):
        total = 0.0
        self.cumulative = []
        for rank in range(1, n + 1):
            total += rank ** -s
            self.cumulative.append(total)

    def draw(self, rng: random.Random, k: int) -> int:
        """A 0-based rank below ``k``."""
        return bisect.bisect_left(
            self.cumulative, rng.random() * self.cumulative[k - 1], 0, k - 1
        )


def _distinct(subs: Dict[str, dict], problems) -> List[str]:
    """Corpus sids of ``problems`` with exact-text duplicates dropped."""
    seen = set()
    out = []
    for sid, sub in subs.items():
        key = (sub["problem"], sub["source"])
        if sub["problem"] in problems and key not in seen:
            seen.add(key)
            out.append(sid)
    return out


def popularity(sids: List[str]) -> Dict[str, int]:
    """``sid -> rank`` (0 = most resubmitted), the same for every seed."""
    order = sorted(sids)
    random.Random(f"perfbench:popularity:{CORPUS_SEED}").shuffle(order)
    return {sid: rank for rank, sid in enumerate(order)}


def resubmit_counts(sids: List[str], total: int) -> Dict[str, int]:
    """``sid -> resubmissions``: ``total`` split by the zipf weight of
    each submission's :func:`popularity` rank (largest remainders)."""
    rank = popularity(sids)
    weights = {sid: (rank[sid] + 1) ** -ZIPF_S for sid in sids}
    scale = total / sum(weights.values())
    counts = {sid: int(w * scale) for sid, w in weights.items()}
    by_remainder = sorted(sids, key=lambda sid: (counts[sid] - weights[sid] * scale, rank[sid]))
    for sid in by_remainder[: total - sum(counts.values())]:
        counts[sid] += 1
    return counts


def _resubmission(rng: random.Random, sid: str, subs: Dict[str, dict]) -> list:
    """One stream entry ``[sid, variant]``; variant ``-1`` = byte-identical."""
    if rng.random() < IDENTICAL_SHARE:
        return [sid, -1]
    return [sid, rng.randrange(len(subs[sid]["variants"]))]


def generate(workload: str, seed: int) -> dict:
    """The full input document for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"perfbench:{workload}:{seed}")
    subs = corpus()
    doc: dict = {
        "workload": workload,
        "seed": seed,
        "budget_s": BUDGET_S,
        "problems": list(PROBLEMS),
    }
    if workload == "table1":
        doc["orders"] = []
        for _ in range(TABLE1_ORDERS):
            problems = list(PROBLEMS)
            rng.shuffle(problems)
            order = []
            for name in problems:
                sids = [sid for sid, sub in subs.items() if sub["problem"] == name]
                rng.shuffle(sids)
                order.append([name, sids])
            doc["orders"].append(order)
    else:
        variant_rng = random.Random(f"perfbench:variants:{seed}")
        for sid in subs:
            subs[sid]["variants"] = variants(subs[sid]["source"], variant_rng)
    if workload == "resubmit":
        rank = popularity(_distinct(subs, POOL_PROBLEMS))
        pool = sorted(rank, key=rank.get)  # pool[0] is the most popular
        zipf = _Zipf(len(pool))
        doc["fill"] = sorted(pool)
        doc["stream"] = [
            _resubmission(rng, pool[zipf.draw(rng, len(pool))], subs)
            for _ in range(RESUBMIT_STREAM)
        ]
    elif workload == "classroom":
        arrivals = _distinct(subs, PROBLEMS)
        counts = resubmit_counts(
            arrivals,
            round(len(arrivals) * CLASSROOM_HIT_SHARE / (1.0 - CLASSROOM_HIT_SHARE)),
        )
        # Each submission arrives at a seeded time in [0, 1) and recurs at
        # seeded times after it; the stream is the events in time order.
        events = []
        for sid in arrivals:
            first = rng.random()
            events.append((first, sid, False))
            for _ in range(counts[sid]):
                events.append((first + (1.0 - first) * rng.random(), sid, True))
        events.sort()
        doc["stream"] = [
            _resubmission(rng, sid, subs) if again else [sid, None]
            for _, sid, again in events
        ]
    doc["submissions"] = subs
    doc["properties"] = properties(doc)
    return doc


def properties(doc: dict) -> dict:
    """The input properties a claim about this workload must cite."""
    subs = doc["submissions"]
    sources = Counter((sub["problem"], sub["source"]) for sub in subs.values())
    props: dict = {
        "per_problem": dict(Counter(sub["problem"] for sub in subs.values())),
        "origins": dict(Counter(sub["origin"] for sub in subs.values())),
        "corpus": len(subs),
        "in_corpus_duplicate_share": sum(n - 1 for n in sources.values())
        / len(subs),
    }
    stream = doc.get("stream")
    if stream:
        forms = Counter(
            "first"
            if variant is None
            else "identical"
            if variant == -1
            else subs[sid]["variants"][variant]["kind"]
            for sid, variant in stream
        )
        resubmits = len(stream) - forms["first"]
        props.update(
            stream=len(stream),
            first_submission_share=forms["first"] / len(stream),
            identical_share=forms["identical"] / max(1, resubmits),
            renamed_share=forms["renamed"] / max(1, resubmits),
            recommented_share=forms["recommented"] / max(1, resubmits),
        )
    if "fill" in doc:
        props["pool"] = len(doc["fill"])
        props["pool_per_problem"] = dict(
            Counter(subs[sid]["problem"] for sid in doc["fill"])
        )
    return props


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    doc = generate(args.workload, args.seed)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
