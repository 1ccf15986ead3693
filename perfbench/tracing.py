"""Per-layer spans for the traced benchmark run.

The benchmark never edits the program: it wraps public entry points
from outside, at the module namespace that looks them up (a function
imported by name must be patched where it is imported, not only where
it is defined).  Each wrapper is a span: it times the call, charges
its duration to the enclosing span on the same thread, and keeps the
call's *self* time (duration minus nested spans).  Spans live on
per-thread stacks, so concurrent session drivers never mix.

Per-evaluation spans (``W``, ``Objective``, backend ``minimize``) are
installed only for serial workloads: pool workers fork with the
wrappers in place, but whatever they record stays in the worker.

A missing entry point is skipped, not an error, so the benchmark keeps
running on later versions of the program; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_local = threading.local()
_lock = threading.Lock()
#: One totals dict per thread that ever entered a span.
_threads: List[Dict[str, List[float]]] = []
#: Per-thread time spent in outermost spans (keyed like ``_threads``).
_roots: List[List[float]] = []
_main = threading.main_thread()
_pools: List[Any] = []
_session_events: List[tuple] = []
_installed: List[str] = []


def _state():
    state = getattr(_local, "state", None)
    if state is None:
        totals: Dict[str, List[float]] = {}
        root = [0.0, threading.current_thread() is _main]
        with _lock:
            _threads.append(totals)
            _roots.append(root)
        state = _local.state = ([], totals, root)
    return state


def span(name: str, fn: Callable, measure: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped as span ``name``.

    A span's record is ``[calls, s, self_s, x0, x1]``; ``measure(args,
    result)`` may return the two extra numbers ``x0, x1`` summed into
    it (e.g. points per batch, evaluations per start).  The body is
    inlined by hand: it runs around every weak-distance evaluation.
    """
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            stack, totals, root = _local.state
        except AttributeError:
            stack, totals, root = _state()
        stack.append(0.0)
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = perf() - t0
            child = stack.pop()
            if stack:
                stack[-1] += duration
            else:
                root[0] += duration
            rec = totals.get(name)
            if rec is None:
                rec = totals[name] = [0, 0.0, 0.0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += duration
            rec[2] += duration - child
        if measure is not None:
            extra = measure(args, result)
            rec[3] += extra[0]
            rec[4] += extra[1]
        return result

    wrapper.__perfbench_span__ = name
    return wrapper


def _patch(owner: Any, attr: str, name: str, measure=None) -> None:
    original = owner.__dict__.get(attr) if isinstance(owner, type) else None
    if original is None:
        original = getattr(owner, attr, None)
    if original is None or getattr(original, "__perfbench_span__", None):
        return
    setattr(owner, attr, span(name, original, measure))
    _installed.append(f"{getattr(owner, '__name__', owner)}.{attr}")


def _module(path: str):
    try:
        return importlib.import_module(path)
    except ImportError:
        return None


def _patch_in(modules, attr: str, name: str, measure=None) -> None:
    for path in modules:
        module = _module(path)
        if module is not None and hasattr(module, attr):
            _patch(module, attr, name, measure)


def _batch_points(args, result) -> tuple:
    w = args[0]
    n = len(args[1]) if len(args) > 1 else 0
    fallback = not getattr(w, "supports_batch", False)
    return (n, 1.0 if fallback else 0.0)


def _start_outcome(args, result) -> tuple:
    if result is None:
        return (0, 0.0)
    return (getattr(result, "n_evals", 0), 1.0 if result.stopped_at_zero else 0.0)


def _hits(args, result) -> tuple:
    return (1.0 if result is not None else 0.0, 0.0)


def _count_lowerable(args, result) -> tuple:
    result = result or []
    return (len(result), sum(1 for fn in result if getattr(fn, "lowerable", False)))


def _count_files(args, result) -> tuple:
    return (len(result or []), 0.0)


def _track_pool(init):
    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        with _lock:
            _pools.append(self)

    return wrapper


def _track_session(init):
    """Chain an event callback into every Session (its public
    ``on_event`` argument) to stamp job start and finish times."""

    @functools.wraps(init)
    def wrapper(self, config=None, on_event=None, *args, **kwargs):
        def stamp(event, _user=on_event):
            kind = type(event).__name__
            if kind in ("JobStarted", "JobFinished"):
                _session_events.append(
                    (id(self), event.job_id, kind, time.perf_counter())
                )
            if _user is not None:
                _user(event)

        init(self, config, stamp, *args, **kwargs)

    return wrapper


def _track_submit(submit):
    @functools.wraps(submit)
    def wrapper(self, *args, **kwargs):
        t0 = time.perf_counter()
        handle = submit(self, *args, **kwargs)
        _session_events.append((id(self), handle.job_id, "submit", t0))
        return handle

    return wrapper


def install(per_eval: bool) -> List[str]:
    """Install every span; ``per_eval`` adds the per-evaluation ones."""
    targets = _module("repro.api.targets")
    if targets is not None and hasattr(targets, "Target"):
        _patch(targets.Target, "resolve", "targets.resolve")
    _patch_in(
        (
            "repro.analyses.boundary",
            "repro.analyses.path",
            "repro.analyses.overflow",
            "repro.analyses.coverage",
            "repro.analyses.inconsistency",
            "repro.core.kernel",
            "repro.fpir.instrument",
        ),
        "instrument",
        "instrument",
    )
    _patch_in(
        ("repro.core.weak_distance", "repro.fpir.compiler"),
        "compile_program",
        "compiler",
    )
    _patch_in(("repro.fpir.batch_eval",), "compile_batch", "batch_compile")
    _patch_in(("repro.api.session", "repro.core.parallel"), "run_multistart", "parallel")
    pool = _module("repro.core.pool")
    if pool is not None and hasattr(pool, "WorkerPool"):
        _patch(pool.WorkerPool, "run_round", "pool.round")
        pool.WorkerPool.__init__ = _track_pool(pool.WorkerPool.__init__)
    session = _module("repro.api.session")
    if session is not None and hasattr(session, "Session"):
        session.Session.__init__ = _track_session(session.Session.__init__)
        session.Session.submit = _track_submit(session.Session.submit)
    _patch_in(("repro.scan.orchestrator",), "walk_source_files", "scan.walker", _count_files)
    _patch_in(
        ("repro.scan.orchestrator",), "discover_functions", "scan.classify", _count_lowerable
    )
    store = _module("repro.scan.store")
    if store is not None and hasattr(store, "ResultStore"):
        _patch(store.ResultStore, "__init__", "scan.store.load")
        _patch(store.ResultStore, "get", "scan.store.get", _hits)
        _patch(store.ResultStore, "put", "scan.store.put")
    _patch_in(("repro.static",), "analyze", "static.analyze")
    journal = _module("repro.serve.checkpoint")
    if journal is not None and hasattr(journal, "CheckpointJournal"):
        for attr in ("record_job", "record_round", "record_done"):
            _patch(journal.CheckpointJournal, attr, "serve.checkpoint")
    if per_eval:
        wd = _module("repro.core.weak_distance")
        if wd is not None and hasattr(wd, "WeakDistance"):
            _patch(wd.WeakDistance, "__call__", "w")
            _patch(wd.WeakDistance, "evaluate_batch", "w.batch", _batch_points)
        base = _module("repro.mo.base")
        if base is not None and hasattr(base, "Objective"):
            _patch(base.Objective, "__call__", "objective")
            _patch(base.Objective, "evaluate_batch", "objective")
            for cls in _subclasses(base.MOBackend):
                if "minimize" in cls.__dict__:
                    _patch(cls, "minimize", "backend", _start_outcome)
    return list(_installed)


def _subclasses(cls) -> List[type]:
    _module("repro.mo.registry")
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return found


def totals() -> Dict[str, List[float]]:
    """Span records summed over threads: name -> [calls, s, self_s, x0, x1]."""
    merged: Dict[str, List[float]] = {}
    with _lock:
        for per_thread in _threads:
            for name, rec in per_thread.items():
                into = merged.setdefault(name, [0, 0.0, 0.0, 0.0, 0.0])
                for i, value in enumerate(rec):
                    into[i] += value
    return merged


def root_seconds(main: bool) -> float:
    """Outermost-span time on the main thread, or on every other thread
    (session drivers and server threads)."""
    with _lock:
        return sum(root[0] for root in _roots if root[1] == main)


def session_jobs() -> Dict[str, Any]:
    """Job count, job time, busy time (overlapping jobs counted once)
    and mean queue wait, from the session events seen so far."""
    stamps: Dict[tuple, Dict[str, float]] = {}
    for session_id, job_id, kind, t in list(_session_events):
        stamps.setdefault((session_id, job_id), {})[kind] = t
    jobs = [s for s in stamps.values() if "JobStarted" in s and "JobFinished" in s]
    waits = [s["JobStarted"] - s["submit"] for s in jobs if "submit" in s]
    busy, reach = 0.0, float("-inf")
    for start, end in sorted((s["JobStarted"], s["JobFinished"]) for s in jobs):
        if end > reach:
            busy += end - max(start, reach)
            reach = end
    return {
        "jobs": len(jobs),
        "job_s": sum(s["JobFinished"] - s["JobStarted"] for s in jobs),
        "busy_s": busy,
        "queue_wait_s": sum(waits) / len(waits) if waits else 0.0,
    }


def pool_stats() -> Dict[str, int]:
    """``WorkerPool.stats()`` summed over every pool the run created."""
    out: Dict[str, int] = {"rounds": 0, "programs": 0, "rebuilds": 0, "crash_retries": 0}
    with _lock:
        pools = list(_pools)
    for pool in pools:
        stats = pool.stats()
        for key in out:
            out[key] += int(stats.get(key, 0))
    return out
