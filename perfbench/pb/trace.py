"""Per-layer tracing from outside the program.

:func:`install` wraps the public calls of each layer (:data:`TARGETS`)
in the process that calls it, before the program starts working.
Module-level functions are imported by name into their callers, so each
is replaced where it is looked up; methods are replaced on their class,
which also covers forked grading workers: they inherit the patched
classes, and :class:`Tracer` re-arms itself in each forked child.

A span is ``(id, parent, name, start, end, request id, attributes)``
(:data:`pb.stats.Span`). The request id is the submission id: the call's
``request_id`` argument, or the id of the generated input whose text the
call received, else the enclosing span's. Spans stay in memory and are
written to ``<dir>/spans-<pid>.json`` when the process exits.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import importlib
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from repro.sat import SAT


def source_key(source: str) -> str:
    """The lookup key of a submission text (request-id mapping)."""
    return hashlib.sha1(source.encode("utf-8")).hexdigest()


class Tracer:
    """In-memory span recorder for one process (and its forked children)."""

    def __init__(self, out_dir: str, sids: Dict[str, str]):
        self.out_dir = out_dir
        #: ``source_key(text) -> submission id`` for every generated input.
        self.sids = sids
        self.spans: List[tuple] = []
        #: Targets :func:`install` could not wrap (written with the spans).
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        atexit.register(self.dump)
        multiprocessing.util.register_after_fork(self, Tracer._forked)

    def _forked(self) -> None:
        # A forked worker starts with an empty buffer and no open spans;
        # multiprocessing children skip atexit, so dump via its finalizer.
        self.spans = []
        self._local = threading.local()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=0)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def request_of(self, args, kwargs, source_at, request_kw) -> str:
        if request_kw and kwargs.get(request_kw):
            return kwargs[request_kw]
        if source_at is None:
            return ""
        source = args[source_at] if len(args) > source_at else kwargs.get("source")
        if isinstance(source, str):
            return self.sids.get(source_key(source), "")
        return ""

    def wrap(
        self,
        name: str,
        fn: Callable,
        source_at: Optional[int] = None,
        request_kw: Optional[str] = None,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        The request id comes from keyword ``request_kw`` or the submission
        text at position ``source_at``. ``before(args)`` returns state for
        ``after(args, result, state)``, which returns the span's
        attributes (``result`` is ``None`` when ``fn`` raised).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request = tracer.request_of(args, kwargs, source_at, request_kw)
            state = before(args) if before else None
            result = None
            attrs: dict = {}
            try:
                with tracer.span(name, request) as attrs:
                    result = fn(*args, **kwargs)
                return result
            finally:
                # The span is recorded already; its attribute dict is
                # filled after its end so ``after`` is not timed.
                if after:
                    attrs.update(after(args, result, state))

        return wrapper

    @contextmanager
    def span(self, name: str, request: str = ""):
        """Record one span around the block, which may fill the yielded
        attribute dict. Without a ``request`` the span takes its
        parent's."""
        stack = self._stack()
        parent = stack[-1] if stack else (None, "")
        request = request or parent[1]
        span_id = next(self._ids)
        attrs: dict = {}
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent[0], name, start, end, request, attrs)
            )

    def dump(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"pid": os.getpid(), "missing": self.missing, "spans": self.spans},
                handle,
            )


# -- what is wrapped ----------------------------------------------------------


def _sat_before(args):
    stats = args[0].stats
    return stats["propagations"], stats["conflicts"]


def _sat_after(args, result, state):
    stats = args[0].stats
    return {
        "sat": int(result == SAT),
        "propagations": stats["propagations"] - state[0],
        "conflicts": stats["conflicts"] - state[1],
    }


def _engine_after(args, result, state):
    if result is None:
        return {"status": "raised", "iterations": 0}
    return {"status": result.status, "iterations": result.iterations}


def _cex_after(args, result, state):
    return {"cex": int(result is not None)}


def _verdict_after(args, result, state):
    return {"failing": len(result[1]) if result is not None else 0}


def _leaves_after(args, result, state):
    return {"leaves": len(result) if result is not None else 0}


def _fuel_before(args):
    return args[0].fuel_consumed


def _fuel_after(args, result, state):
    return {"fuel": args[0].fuel_consumed - state}


def _static_after(args, result, state):
    return {"static": int(result is not None)}


def _hit_after(args, result, state):
    return {"hit": int(result is not None)}


def _runner_after(args, result, state):
    stats = args[0].stats
    return {"total": stats.total, "dedup": stats.dedup_hits}


def _warm_after(args, result, state):
    return {"inputs": len(result.verifier.inputs) if result is not None else 0}


#: ``(span name, attribute path, modules, wrap options)``. A
#: ``Class.method`` path is patched on the class found in the first
#: module. A function is replaced in every listed module (each must hold
#: it), in the module that defines it and in every other loaded
#: ``repro`` module that holds it, so a caller that imports it by name
#: later gets the wrapper too; a ``scoped`` function only in the listed
#: modules (``parse_program``: the parse of the submission being graded,
#: not the parses inside canonicalization, triage or problem loading).
TARGETS = (
    ("sat", "Solver.solve", ["repro.sat.solver"],
     {"before": _sat_before, "after": _sat_after}),
    ("engines", "CegisMinEngine.solve", ["repro.engines.cegismin"],
     {"after": _engine_after}),
    ("encoding", "HoleEncoding.block_cube", ["repro.engines.encoding"], {}),
    ("verify", "BoundedVerifier.find_counterexample",
     ["repro.engines.verify"], {"after": _cex_after}),
    ("explore.verdict", "BoundedVerifier.table_verdict",
     ["repro.engines.verify"], {"after": _verdict_after}),
    ("explore", "CandidateSpace.explore_free_region",
     ["repro.engines.base"], {"after": _leaves_after}),
    ("exec", "CandidateSpace.outcome", ["repro.engines.base"],
     {"before": _fuel_before, "after": _fuel_after}),
    ("core.render", "FeedbackGenerator.items", ["repro.core.feedback"], {}),
    ("mpy.parse", "parse_program", ["repro.core.api"],
     {"source_at": 0, "scoped": True}),
    ("core.rewrite", "rewrite_submission", ["repro.core.api"], {}),
    ("core.grade", "generate_feedback",
     ["repro.service.runner", "repro.service.workers", "repro.server.warm"],
     {"source_at": 0}),
    ("analysis.triage", "triage_record",
     ["repro.analysis.triage", "repro.server.service"],
     {"source_at": 3, "after": _static_after}),
    ("canonical", "canonicalize",
     ["repro.service.runner", "repro.server.service"], {"source_at": 0}),
    ("cache.get", "ResultCache.get", ["repro.service.cache"],
     {"after": _hit_after}),
    ("cache.put", "ResultCache.put", ["repro.service.cache"], {}),
    ("cache.get", "StoreClient.get", ["repro.service.store"],
     {"after": _hit_after}),
    ("cache.put", "StoreClient.put", ["repro.service.store"], {}),
    ("store.flush", "StoreClient.flush", ["repro.service.store"], {}),
    ("runner", "BatchRunner.run", ["repro.service.runner"],
     {"after": _runner_after}),
    ("server", "FeedbackService.grade", ["repro.server.service"],
     {"request_kw": "request_id", "source_at": 2}),
    ("warm", "warm_problem", ["repro.server.warm", "repro.server"],
     {"after": _warm_after}),
    ("warm.registry", "warm_registry",
     ["repro.server.warm", "repro.server", "repro.server.service"], {}),
)


def _holders(attr: str, original: Callable) -> List[object]:
    """The defining module and every loaded ``repro`` module that holds
    ``original`` as ``attr``."""
    return [
        module
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and getattr(module, attr, None) is original
    ]


def install(tracer: Tracer) -> List[str]:
    """Wrap every target. Returns (and records on ``tracer``, so they
    reach the span files) the targets that are gone or no longer held
    where listed; the benchmark fails a traced run that has any, since
    its layer would read zero."""
    missing: List[str] = []
    for name, path, module_names, options in TARGETS:
        options = dict(options)
        scoped = options.pop("scoped", False)
        try:
            modules = [importlib.import_module(m) for m in module_names]
        except ImportError as exc:
            missing.append(f"{path} ({exc})")
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(modules[0], owner_name, None) if owner_name else modules[0]
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{path} in {module_names[0]}")
            continue
        wrapper = tracer.wrap(name, original, **options)
        if owner_name:
            setattr(owner, attr, wrapper)
            continue
        absent = [m.__name__ for m in modules if getattr(m, attr, None) is not original]
        missing += [f"{path} in {module}" for module in absent]
        for module in modules if scoped else modules + _holders(attr, original):
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
    if missing:
        print(f"perfbench: not traced: {', '.join(missing)}", file=sys.stderr)
    tracer.missing = missing
    return missing
