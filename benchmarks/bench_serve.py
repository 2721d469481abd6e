"""Serving benchmark: what a warm persistent process buys per request.

Three workloads over the same problem (evalPoly, a Table 1 row whose
bounded space is large enough that per-invocation warmup is a real cost) and the same synthetic student submissions:

- **cold** — one full CLI invocation per submission (``python -m
  repro.cli feedback``): interpreter start, package import, registry
  construction, model parse, bounded-space enumeration, then the solve.
  This is what per-request grading costs without a daemon.
- **warm miss** — the same submissions POSTed to a running server that
  has never seen them: every request pays the real solve, but all the
  per-problem work was done once at startup.
- **zipf resubmission** — requests drawn from the submission pool under
  a zipf(1.2) rank distribution, the classic shape of classroom traffic
  (the one conceptual error half the class shares dominates): measures
  sustained req/s and the cache-hit ratio the dedup layer converts that
  skew into.
- **cache-miss multi-core scaling** — the same distinct-submission
  stream pushed through ``--executor thread`` and ``--executor
  process`` at ``N = min(4, cores)`` concurrency. The engine loop is
  pure-Python CPU work, so the thread executor is GIL-bound to ~one
  core regardless of ``--jobs``; the process executor's preforked
  workers are where extra cores actually become throughput.
- **fleet tier** — what the routing layer costs and buys: added p50 on
  a warm cache hit through an in-process router (target ≤ 1ms), and the
  same miss stream against one backend *process* vs a 2-backend
  subprocess fleet behind the router (≥ 1.8x on a ≥4-core runner).

A session finalizer writes ``BENCH_serve.json`` at the repo root,
stamped with the git revision, CPU count and Python version, from
whatever cases ran (CI's fleet job writes the ``fleet`` section from a
``-k`` subset), and the final tests enforce the CI contracts: warm
cache-miss p50 at least 2x better than cold p50, and (on ≥4-core
runners) process-executor cache-miss throughput at least 2x the thread
executor's.
"""

import json
import os
import pathlib
import random
import statistics
import subprocess
import sys
import threading
import time

import pytest

from benchmarks.conftest import run_stamp
from repro.problems import get_problem
from repro.server import FeedbackClient, FeedbackHTTPServer, FeedbackService, warm_registry
from repro.service import GradingConfig
from repro.studentgen import generate_corpus

PROBLEM_NAME = "evalPoly-6.00x"
TIMEOUT_S = float(os.environ.get("REPRO_BENCH_TIMEOUT", "20"))
COLD_INVOCATIONS = int(os.environ.get("REPRO_BENCH_COLD_N", "6"))
WARM_SUBMISSIONS = int(os.environ.get("REPRO_BENCH_WARM_N", "12"))
ZIPF_REQUESTS = int(os.environ.get("REPRO_BENCH_ZIPF_N", "80"))
SCALE_WORKERS = int(
    os.environ.get(
        "REPRO_BENCH_SCALE_WORKERS", str(max(2, min(4, os.cpu_count() or 1)))
    )
)

_RESULTS: dict = {}
_BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_serve.json"
_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _percentiles(samples):
    ordered = sorted(samples)
    return {
        "n": len(ordered),
        "p50": statistics.median(ordered),
        "p95": ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))],
        "mean": statistics.fmean(ordered),
    }


@pytest.fixture(scope="module")
def submissions(tmp_path_factory):
    """Distinct incorrect submissions, also written out for the cold CLI."""
    problem = get_problem(PROBLEM_NAME)
    corpus = generate_corpus(
        problem, incorrect_count=WARM_SUBMISSIONS, seed=7
    )
    # Only canonically distinct submissions: a duplicate would be a cache
    # hit and contaminate the cache-miss latency sample.
    from repro.service.canonical import canonicalize

    seen, sources = set(), []
    for submission in corpus.incorrect:
        digest = canonicalize(submission.source, problem.spec).digest
        if digest not in seen:
            seen.add(digest)
            sources.append(submission.source)
    directory = tmp_path_factory.mktemp("cold-submissions")
    paths = []
    for index, source in enumerate(sources):
        path = directory / f"s{index:03d}.py"
        path.write_text(source)
        paths.append(path)
    return sources, paths


@pytest.fixture(scope="module")
def served():
    warmup = warm_registry(names=[PROBLEM_NAME])
    service = FeedbackService(
        warmup=warmup, jobs=2, queue_limit=64, config=GradingConfig(timeout_s=TIMEOUT_S)
    )
    server = FeedbackHTTPServer(service, port=0)
    server.serve_in_thread()
    client = FeedbackClient(port=server.port)
    yield service, client
    client.close()
    server.shutdown_gracefully()


@pytest.fixture(scope="module", autouse=True)
def _write_serve_json():
    yield
    if not _RESULTS:
        return
    payload = {
        "workload": (
            f"{PROBLEM_NAME}: {COLD_INVOCATIONS} cold CLI invocations vs "
            f"{WARM_SUBMISSIONS} warm cache-miss requests vs "
            f"{ZIPF_REQUESTS} zipf(1.2)-resubmission requests; "
            f"cache-miss scaling at {SCALE_WORKERS}-way concurrency, "
            f"thread vs process executor; fleet: router warm-hit "
            f"overhead + {FLEET_SUBMISSIONS}-submission miss stream, "
            f"1 vs 2 backend processes"
        ),
        "unix_time": time.time(),
        **run_stamp(),
        **_RESULTS,
    }
    cold = _RESULTS.get("cold", {}).get("p50")
    warm = _RESULTS.get("warm_miss", {}).get("p50")
    if cold and warm:
        payload["warm_vs_cold_p50_speedup"] = cold / warm
        print(f"\nwarm-vs-cold p50 speedup: {cold / warm:.1f}x")
    _BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")


def test_cold_per_invocation(submissions):
    """One CLI process per submission — the no-daemon baseline."""
    _, paths = submissions
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_ROOT / "src")
    samples = []
    for index in range(COLD_INVOCATIONS):
        path = paths[index % len(paths)]
        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "feedback",
                str(path),
                "--problem",
                PROBLEM_NAME,
                "--timeout",
                str(TIMEOUT_S),
            ],
            env=env,
            cwd=str(_REPO_ROOT),
            capture_output=True,
            text=True,
        )
        samples.append(time.perf_counter() - start)
        assert proc.returncode in (0, 1), proc.stderr  # 1 = honest no_fix
    _RESULTS["cold"] = _percentiles(samples)


def test_warm_cache_miss_latency(served, submissions):
    """Every request a distinct submission: the server still solves each
    one, but never rebuilds per-problem state."""
    _, client = served
    sources, _ = submissions
    samples = []
    statuses = {}
    for source in sources:
        start = time.perf_counter()
        out = client.grade(PROBLEM_NAME, source, timeout_s=TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        assert not out["cached"] and not out["deduped"]
        status = out["record"]["status"]
        statuses[status] = statuses.get(status, 0) + 1
    _RESULTS["warm_miss"] = {**_percentiles(samples), "by_status": statuses}


def test_zipf_resubmission_throughput(served, submissions):
    """Classroom-shaped traffic: a few submissions dominate the stream."""
    service, client = served
    sources, _ = submissions
    rng = random.Random(7)
    weights = [1.0 / (rank + 1) ** 1.2 for rank in range(len(sources))]
    stream = rng.choices(sources, weights=weights, k=ZIPF_REQUESTS)
    before = service.stats()
    start = time.perf_counter()
    for source in stream:
        client.grade(PROBLEM_NAME, source, timeout_s=TIMEOUT_S)
    elapsed = time.perf_counter() - start
    after = service.stats()
    hits = after["cache_hits"] - before["cache_hits"]
    requests = after["requests"] - before["requests"]
    _RESULTS["zipf"] = {
        "requests": requests,
        "seconds": elapsed,
        "req_per_s": requests / elapsed,
        "cache_hit_ratio": hits / requests,
    }
    # The telemetry histograms have now seen every request of the cold/
    # warm/zipf sections: publish the server's own latency percentiles
    # (p50/p95/p99 per outcome, per problem, per stage) alongside the
    # client-side timings above.
    _RESULTS["latency"] = after["latency"]
    assert requests == ZIPF_REQUESTS
    # The warm-miss test already graded every submission, so this stream
    # is pure cache traffic: the hit ratio must be total.
    assert hits == ZIPF_REQUESTS


def test_obs_overhead_contract(served, submissions):
    """CI contract: telemetry costs ≤ 3% of zipf throughput.

    The same zipf-shaped stream as above (pure cache hits — the path
    where fixed per-request telemetry cost is the largest *fraction* of
    the work), alternating obs-on and obs-off runs over the live HTTP
    server. Client and server threads live in this one process and the
    work is CPU-bound, so the modes are compared on best-of-``repeats``
    **CPU** throughput — wall clock on a shared runner is a scheduling
    lottery that swamps a 3% bar; CPU seconds charge exactly the code
    under test.
    """
    from repro.obs import OBS

    _, client = served
    sources, _ = submissions
    rng = random.Random(11)
    weights = [1.0 / (rank + 1) ** 1.2 for rank in range(len(sources))]
    # A longer stream than the throughput section: the contract divides
    # two timings of the same work, so per-run noise must be small
    # relative to a 3% bar.
    stream = rng.choices(sources, weights=weights, k=4 * ZIPF_REQUESTS)

    def run() -> float:
        start = time.process_time()
        for source in stream:
            client.grade(PROBLEM_NAME, source, timeout_s=TIMEOUT_S)
        return time.process_time() - start

    run()  # one untimed pass so both modes start equally warm
    # GC pauses land asymmetrically across short runs and would swamp a
    # 3% bar (same reason the CI bench steps pass --benchmark-disable-gc)
    # — the *allocation* cost of telemetry still counts, collection is
    # deferred to after the measurement.
    import gc

    signals = []
    noises = []
    on_cpu = []
    off_cpu = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(7):
            # Each round is an off/on/off sandwich: the two off runs
            # bracket the on run (cancelling linear drift) *and* their
            # disagreement measures what the runner's noise floor is —
            # the only way to tell a 2% telemetry cost from a 5% noise
            # burst on a shared box.
            with OBS.using(False):
                off_before = run()
            with OBS.using(True):
                on = run()
            with OBS.using(False):
                off_after = run()
            signals.append(2.0 * on / (off_before + off_after))
            noises.append(abs(off_before / off_after - 1.0))
            on_cpu.append(on)
            off_cpu.extend((off_before, off_after))
    finally:
        gc.enable()
    overhead = statistics.median(signals) - 1.0
    noise = statistics.median(noises)
    requests = len(stream)
    rate_on = requests / statistics.median(on_cpu)
    rate_off = requests / statistics.median(off_cpu)
    _RESULTS["obs_overhead"] = {
        "cpu_req_per_s_obs_on": rate_on,
        "cpu_req_per_s_obs_off": rate_off,
        "overhead_fraction": overhead,
        "noise_floor_fraction": noise,
    }
    print(
        f"\nobs overhead on zipf cache hits: {overhead * 100:.2f}% "
        f"({rate_on:.0f} vs {rate_off:.0f} req/s; "
        f"noise floor {noise * 100:.2f}%)"
    )
    if noise > 0.015:
        pytest.skip(
            f"runner too noisy to resolve a 3% bar: identical obs-off "
            f"runs disagree by {noise * 100:.1f}% (median of 7 rounds); "
            f"measured overhead {overhead * 100:.2f}% recorded in "
            f"BENCH_serve.json"
        )
    assert overhead <= 0.03, (
        f"telemetry costs {overhead * 100:.1f}% of zipf throughput "
        f"({rate_on:.0f} req/s on vs {rate_off:.0f} req/s off)"
    )


def _cache_miss_throughput(executor: str, sources) -> dict:
    """Distinct submissions through a fresh service under ``executor``.

    A fresh service (and a fresh in-memory cache) per run: every request
    is a genuine cache-miss solve. ``SCALE_WORKERS`` client threads with
    one keep-alive connection each keep the admission gate saturated, so
    the measured rate is the executor's, not the load generator's.
    """
    warmup = warm_registry(names=[PROBLEM_NAME])
    service = FeedbackService(
        warmup=warmup,
        jobs=SCALE_WORKERS,
        queue_limit=256,
        config=GradingConfig(timeout_s=TIMEOUT_S),
        executor=executor,
    )
    server = FeedbackHTTPServer(service, port=0)
    server.serve_in_thread()
    lanes = [list(sources[lane::SCALE_WORKERS]) for lane in range(SCALE_WORKERS)]
    statuses: dict = {}
    lock = threading.Lock()

    def drive(lane):
        client = FeedbackClient(port=server.port)
        try:
            for source in lane:
                out = client.grade(PROBLEM_NAME, source, timeout_s=TIMEOUT_S)
                assert not out["cached"] and not out["deduped"]
                status = out["record"]["status"]
                with lock:
                    statuses[status] = statuses.get(status, 0) + 1
        finally:
            client.close()

    threads = [
        threading.Thread(target=drive, args=(lane,)) for lane in lanes
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    server.shutdown_gracefully()
    return {
        "executor": executor,
        "requests": len(sources),
        "seconds": elapsed,
        "req_per_s": len(sources) / elapsed,
        "by_status": statuses,
    }


def test_cache_miss_scaling_thread_vs_process(submissions):
    """Same miss stream, both executors, N-way concurrency."""
    sources, _ = submissions
    thread_run = _cache_miss_throughput("thread", sources)
    process_run = _cache_miss_throughput("process", sources)
    _RESULTS["scaling"] = {
        "workers": SCALE_WORKERS,
        "cpu_count": os.cpu_count(),
        "thread": thread_run,
        "process": process_run,
        "process_vs_thread_speedup": (
            process_run["req_per_s"] / thread_run["req_per_s"]
        ),
    }
    # Whatever the speedup, both executors must have settled every
    # submission with a real verdict — a worker that errors its way to
    # "throughput" would win every benchmark.
    for run in (thread_run, process_run):
        assert sum(run["by_status"].values()) == len(sources)
        assert run["by_status"].get("error", 0) == 0, run
    assert thread_run["by_status"] == process_run["by_status"]


def test_process_scaling_contract():
    """CI contract: on a ≥4-core runner, ``--executor process --jobs 4``
    grades cache misses at ≥2x the thread executor's rate.

    The engine loop is pure-Python CPU work: the thread executor cannot
    exceed ~1 core, so 4 preforked workers have a 4-core budget to clear
    the 2x bar (measured locally: near-linear). Fewer cores can't
    demonstrate parallelism, so the pin is recorded but not enforced.
    """
    scaling = _RESULTS["scaling"]
    speedup = scaling["process_vs_thread_speedup"]
    print(f"\nprocess-vs-thread cache-miss speedup: {speedup:.2f}x "
          f"({scaling['workers']} workers, {scaling['cpu_count']} cores)")
    if (os.cpu_count() or 1) < 4 or SCALE_WORKERS < 4:
        pytest.skip(
            f"scaling contract needs >=4 cores and >=4 workers "
            f"(have {os.cpu_count()} cores, {SCALE_WORKERS} workers)"
        )
    assert speedup >= 2.0, (
        f"process executor is only {speedup:.2f}x the thread executor "
        f"on cache misses with {SCALE_WORKERS} workers"
    )


# -- Fleet tier: router overhead + N-node cache-miss scaling --------------

FLEET_SUBMISSIONS = int(os.environ.get("REPRO_BENCH_FLEET_N", "24"))
ROUTER_HIT_SAMPLES = int(os.environ.get("REPRO_BENCH_ROUTER_HIT_N", "120"))
#: The published router-overhead target (added warm-hit p50); the hard
#: assertion below is looser because a shared runner's scheduling jitter
#: routinely exceeds 1ms, but the measured number lands in the JSON.
ROUTER_OVERHEAD_TARGET_MS = 1.0


@pytest.fixture(scope="module")
def fleet_sources():
    """A larger distinct-submission pool than ``submissions``: fleet
    scaling splits the miss stream across N backends, so each node must
    still see enough solves for a stable rate."""
    from repro.service.canonical import canonicalize

    problem = get_problem(PROBLEM_NAME)
    corpus = generate_corpus(
        problem, incorrect_count=FLEET_SUBMISSIONS, seed=13
    )
    seen, sources = set(), []
    for submission in corpus.incorrect:
        digest = canonicalize(submission.source, problem.spec).digest
        if digest not in seen:
            seen.add(digest)
            sources.append(submission.source)
    return sources


def test_router_warm_hit_overhead(served, submissions):
    """What the routing tier adds on the cheapest path: a warm cache
    hit, direct-to-backend vs through an in-process router fronting the
    *same* backend. Samples interleave, so runner drift charges both
    sides equally."""
    from repro.fleet import FleetRouter

    _, direct = served
    sources, _ = submissions
    source = sources[0]
    router = FleetRouter(
        [f"{direct.host}:{direct.port}"], problems=[PROBLEM_NAME]
    )
    router.serve_in_thread()
    routed = FeedbackClient(router.host, router.port, timeout_s=TIMEOUT_S)
    try:
        # One untimed pass each: ensures the record is cached (this test
        # must stand alone in the CI fleet job) and both keep-alive
        # connections are established before sampling starts.
        direct.grade(PROBLEM_NAME, source, timeout_s=TIMEOUT_S)
        out = routed.grade(PROBLEM_NAME, source, timeout_s=TIMEOUT_S)
        assert out["cached"] is True
        direct_samples, routed_samples = [], []
        for _ in range(ROUTER_HIT_SAMPLES):
            start = time.perf_counter()
            assert direct.grade(
                PROBLEM_NAME, source, timeout_s=TIMEOUT_S
            )["cached"]
            direct_samples.append(time.perf_counter() - start)
            start = time.perf_counter()
            assert routed.grade(
                PROBLEM_NAME, source, timeout_s=TIMEOUT_S
            )["cached"]
            routed_samples.append(time.perf_counter() - start)
    finally:
        routed.close()
        router.close()
    direct_p = _percentiles(direct_samples)
    routed_p = _percentiles(routed_samples)
    added_ms = (routed_p["p50"] - direct_p["p50"]) * 1000.0
    _RESULTS.setdefault("fleet", {})["router_warm_hit"] = {
        "samples": ROUTER_HIT_SAMPLES,
        "direct_p50_ms": direct_p["p50"] * 1000.0,
        "routed_p50_ms": routed_p["p50"] * 1000.0,
        "added_p50_ms": added_ms,
        "target_added_p50_ms": ROUTER_OVERHEAD_TARGET_MS,
    }
    print(
        f"\nrouter warm-hit overhead: +{added_ms:.3f}ms p50 "
        f"({direct_p['p50'] * 1000:.3f}ms direct, "
        f"{routed_p['p50'] * 1000:.3f}ms routed; "
        f"target +{ROUTER_OVERHEAD_TARGET_MS}ms)"
    )
    # Sanity ceiling, not the target: one routed hop must stay firmly
    # sub-solve (a solve is tens of ms at minimum).
    assert added_ms <= 25.0, _RESULTS["fleet"]["router_warm_hit"]


def _fleet_cache_miss_throughput(n, sources, log_dir) -> dict:
    """Distinct submissions through an N-backend subprocess fleet.

    Unlike the in-process executor scaling above, each backend is a real
    ``repro.cli serve`` process — its own interpreter and GIL — so this
    measures what the routing tier itself scales to."""
    from repro.fleet import start_fleet

    fleet = start_fleet(
        n,
        only=[PROBLEM_NAME],
        jobs=SCALE_WORKERS,
        queue=256,
        config=GradingConfig(timeout_s=TIMEOUT_S),
        log_dir=str(log_dir),
    )
    statuses: dict = {}
    lock = threading.Lock()
    errors: list = []

    def drive(lane):
        client = fleet.client(timeout_s=120.0)
        try:
            for source in lane:
                out = client.grade(PROBLEM_NAME, source, timeout_s=TIMEOUT_S)
                assert not out["cached"] and not out["deduped"]
                status = out["record"]["status"]
                with lock:
                    statuses[status] = statuses.get(status, 0) + 1
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            client.close()

    try:
        lanes = [
            list(sources[lane::SCALE_WORKERS])
            for lane in range(SCALE_WORKERS)
        ]
        threads = [
            threading.Thread(target=drive, args=(lane,)) for lane in lanes
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        assert not errors, errors
        stats_client = fleet.client()
        try:
            graded = {
                node: payload.get("graded", 0)
                for node, payload in stats_client.stats()["nodes"].items()
            }
        finally:
            stats_client.close()
    finally:
        fleet.stop()
    return {
        "backends": n,
        "requests": len(sources),
        "seconds": elapsed,
        "req_per_s": len(sources) / elapsed,
        "by_status": statuses,
        "graded_per_node": graded,
    }


def test_fleet_cache_miss_scaling(fleet_sources, tmp_path_factory):
    """The same miss stream against one backend process and against a
    2-backend fleet, both behind the router."""
    single = _fleet_cache_miss_throughput(
        1, fleet_sources, tmp_path_factory.mktemp("fleet-1")
    )
    duo = _fleet_cache_miss_throughput(
        2, fleet_sources, tmp_path_factory.mktemp("fleet-2")
    )
    _RESULTS.setdefault("fleet", {})["scaling"] = {
        "client_threads": SCALE_WORKERS,
        "cpu_count": os.cpu_count(),
        "single": single,
        "n2": duo,
        "n2_vs_single_speedup": duo["req_per_s"] / single["req_per_s"],
    }
    # Both fleets settled every submission with a real verdict, and the
    # 2-node ring actually spread the work.
    for run in (single, duo):
        assert sum(run["by_status"].values()) == len(fleet_sources)
        assert run["by_status"].get("error", 0) == 0, run
    assert single["by_status"] == duo["by_status"]
    assert len(duo["graded_per_node"]) == 2
    assert all(count > 0 for count in duo["graded_per_node"].values()), duo


def test_fleet_scaling_contract():
    """CI contract: on a ≥4-core runner, 2 backend processes clear
    ≥1.8x one backend's cache-miss rate through the same router.

    Each backend is GIL-bound to ~one core on this pure-Python workload,
    so two processes have two cores of budget — minus routing overhead,
    1.8x is the conservative pin. Fewer cores can't demonstrate the
    parallelism; the measurement is recorded but not enforced."""
    scaling = _RESULTS["fleet"]["scaling"]
    speedup = scaling["n2_vs_single_speedup"]
    print(
        f"\nfleet n2-vs-single cache-miss speedup: {speedup:.2f}x "
        f"({scaling['client_threads']} client threads, "
        f"{scaling['cpu_count']} cores)"
    )
    if (os.cpu_count() or 1) < 4:
        pytest.skip(
            f"fleet scaling contract needs >=4 cores (have "
            f"{os.cpu_count()}); measured {speedup:.2f}x recorded in "
            f"BENCH_serve.json"
        )
    assert speedup >= 1.8, (
        f"2-backend fleet is only {speedup:.2f}x one backend on cache "
        f"misses"
    )


def test_warm_speedup_contract():
    """CI contract: warm cache-miss p50 ≥ 2x better than cold p50.

    (Locally the gap is dominated by interpreter+import+warmup time and
    is typically ≥ 5x; the CI pin is conservative for slow runners.)
    """
    cold = _RESULTS["cold"]["p50"]
    warm = _RESULTS["warm_miss"]["p50"]
    assert cold / warm >= 2.0, (
        f"warm p50 {warm:.3f}s is only {cold / warm:.1f}x better than "
        f"cold p50 {cold:.3f}s"
    )
