"""Batch grading service: classroom-scale grading with cache and resume.

The paper's evaluation graded thousands of attempts per problem, many of
them near-duplicates (260 of 541 evalPoly attempts shared one conceptual
error). This example shows the service layer built for exactly that
traffic shape:

1. a synthetic "submission inbox" is written to a temp directory;
2. the batch runner grades it with 2 worker processes, deduplicating
   α-renamed copies via the canonicalizer and persisting JSONL results;
3. the batch is interrupted halfway and resumed — already-graded
   submissions are skipped;
4. the same corpus is graded again against a warm cache — nothing is
   solved twice. The cache is a result-store log on disk, so a later
   run (or a ``serve --store`` backend) over the same file hits too.

Run:  python examples/batch_service.py [problem-name] [count]
"""

import sys
import tempfile
from pathlib import Path

from repro.problems import get_problem
from repro.service import BatchItem, BatchRunner, JobStore, StoreClient
from repro.studentgen import generate_corpus


def main(problem_name: str = "iterPower-6.00x", count: int = 8) -> None:
    problem = get_problem(problem_name)
    corpus = generate_corpus(problem, incorrect_count=count, seed=3)

    inbox = Path(tempfile.mkdtemp(prefix="repro-inbox-"))
    sources = [s.source for s in corpus.incorrect]
    # Every third submission is a duplicate of the first — the "same
    # conceptual error, many students" population.
    for index in range(len(sources)):
        if index % 3 == 2:
            sources[index] = sources[0]
    for index, source in enumerate(sources):
        (inbox / f"student{index:02d}.py").write_text(source)
    print(f"inbox: {len(sources)} submissions for {problem.name} in {inbox}")

    items = [
        BatchItem(sid=path.name, source=path.read_text())
        for path in sorted(inbox.glob("*.py"))
    ]
    store = JobStore(inbox / "results.jsonl")
    # No flush thread: each run flushes the store when it ends (and the
    # worker processes fork from a single-threaded parent).
    cache = StoreClient(inbox / "cache.store.jsonl", background=False)

    def progress(done, total, result):
        how = "cached" if result.cached else f"{result.report.wall_time:.2f}s"
        print(f"  [{done}/{total}] {result.sid}: {result.report.status} ({how})")

    print("\n-- first batch (2 worker processes) --")
    runner = BatchRunner(
        problem, jobs=2, timeout_s=20, cache=cache, store=store,
        progress=progress,
    )
    runner.run(items)
    s = runner.stats
    print(
        f"graded {s.graded} distinct submissions; {s.dedup_hits} duplicates "
        f"served from their representative; {s.wall_time:.2f}s"
    )

    print("\n-- resumed batch (nothing left to grade) --")
    resumed = BatchRunner(
        problem, jobs=2, timeout_s=20, cache=cache, store=store, resume=True,
    )
    resumed.run(items)
    print(
        f"resumed {resumed.stats.resumed}/{resumed.stats.total} from "
        f"{store.path.name}; graded {resumed.stats.graded}"
    )

    print("\n-- same corpus, fresh runner, warm cache --")
    warm = BatchRunner(problem, jobs=2, timeout_s=20, cache=cache)
    warm.run(items)
    print(
        f"cache hits {warm.stats.cache_hits}/{warm.stats.total}; "
        f"graded {warm.stats.graded}; {warm.stats.wall_time:.2f}s"
    )
    cache.close()
    print(f"cache log: {len(cache.store.entries())} entries in {cache.store.path}")


if __name__ == "__main__":
    name = sys.argv[1] if len(sys.argv) > 1 else "iterPower-6.00x"
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    main(name, count)
