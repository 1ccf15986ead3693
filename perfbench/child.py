"""One benchmark workload in a fresh interpreter.

``run.py`` starts this script once per measurement so that set-up
includes ``import repro``.  The protocol on standard output is two
lines: ``READY`` once the long-lived objects exist (the parent's clock
stops there for ``setup_s``), then ``RESULT <json>`` with the per-job
outcomes and timings.  ``--phase setup`` stops after ``READY`` and the
set-up speed probe;
``--phase reference`` runs the workload's jobs on the interpreter tier
and prints them as the reference.

Usage: python3 perfbench/child.py --workload suite-scalar --phase run
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench-work"

WORKLOADS = ("suite-scalar", "suite-batch", "scan-examples", "serve-mixed")
SUITE_ANALYSES = ("boundary", "path", "overflow", "coverage", "inconsistency")
#: Left out of the suite workloads: on the batch tier it alone takes
#: ~100 s.  scan-examples still analyzes its C port.
SUITE_EXCLUDED = ("gsl-airy",)
#: (backend, eval_mode) of the suite workloads; their reference swaps
#: in the interpreter tier with the same backend.
SUITE_TIERS = {
    "suite-scalar": ("basinhopping", "compiled"),
    "suite-batch": ("population", "vectorized"),
}
SCAN_ANALYSES = ("boundary", "overflow")
#: Unchanged re-scans after the cold scan (more while ``--seconds`` lasts).
MIN_RESCANS = 3
#: The serve job cycle; ``examples/`` specs are made absolute at run time.
SERVE_CYCLE = (
    ("boundary", "fig2"),
    ("path", "fig1a"),
    ("coverage", "examples/c/fig.c::fig2"),
    ("overflow", "examples/python_targets.py::fig2"),
    ("boundary", "gsl-bessel"),
    ("path", "sec51-gh"),
)
#: Closed-loop jobs per run (34 rounds of the six-job cycle).
SERVE_JOBS = 204
SERVE_CLIENTS = 2
#: Probe chunks run right after ``READY``.
SETUP_PROBE_CHUNKS = 20
#: The tracing module in traced runs (``--trace 1``), else None.
_TRACE = None
_SETUP_PROBE = []


def _ready() -> None:
    print("READY", flush=True)
    # How fast the CPU ran just after set-up, to scale ``setup_s``.
    _SETUP_PROBE.extend(probe_chunk() for _ in range(SETUP_PROBE_CHUNKS))


def probe_chunk() -> float:
    """CPU seconds this thread takes for one fixed chunk of work.

    Interpreted float arithmetic plus small numpy calls, the mix the
    analyses spend their time in.  Thread CPU time leaves out waiting
    for the GIL or a CPU, so the chunk measures how fast the CPU runs,
    which on a shared host drifts by tens of percent over seconds.
    """
    import numpy as np

    t0 = time.thread_time()
    acc = 0.0
    for i in range(5000):
        acc += math.sqrt(i + 0.5) * 1.000001
    x = np.linspace(0.0, 1.0, 256)
    for _ in range(100):
        acc += float(np.sum(np.sin(x) * x))
    return time.thread_time() - t0


class SpeedProbe:
    """Runs :func:`probe_chunk` every ``period`` seconds on a thread;
    ``samples`` holds ``(perf_counter before the chunk, chunk CPU s)``."""

    def __init__(self, period: float = 0.2):
        self.period = period
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe")

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.samples.append((time.perf_counter(), probe_chunk()))
            self._stop.wait(self.period)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def _mark():
    """Span totals at the end of the timed window (traced runs only)."""
    if _TRACE is None:
        return None
    return {
        "spans": _TRACE.totals(),
        "main_root_s": _TRACE.root_seconds(main=True),
        "worker_root_s": _TRACE.root_seconds(main=False),
        "session": _TRACE.session_jobs(),
        "pools": _TRACE.pool_stats(),
    }


def _job_outcome(key: str, report=None, error: str = "", window=None):
    if report is None:
        return {"key": key, "error": error or "no report"}
    return {
        "key": key,
        "verdict": report.verdict,
        "findings": sorted([f.kind, f.label] for f in report.findings),
        "n_evals": report.n_evals,
        "window": window,
        "error": "",
    }


def _events_clock():
    """An ``on_event`` callback stamping JobStarted/JobFinished per job."""
    stamps = {}

    def on_event(event):
        kind = type(event).__name__
        if kind in ("JobStarted", "JobFinished"):
            stamps.setdefault(event.job_id, {})[kind] = time.perf_counter()

    return stamps, on_event


def _bump_mtimes(tree: Path, stamp: float) -> None:
    """Give every file a new mtime, so the file-target cache (keyed on
    mtime) misses and a re-scan re-lowers, like a fresh CI checkout."""
    for path in tree.rglob("*"):
        if path.is_file():
            os.utime(path, (stamp, stamp))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def suite_jobs(analysis_seed: int, backend, eval_mode):
    from repro.core.batch import BatchJob
    from repro.programs import list_programs

    programs = [p for p in list_programs() if p not in SUITE_EXCLUDED]
    params = (("smoke", True), ("backend", backend), ("eval_mode", eval_mode))
    return [
        BatchJob(analysis=a, target=p, seed=analysis_seed, params=params)
        for a in SUITE_ANALYSES
        for p in programs
    ]


def run_suite(args, backend, eval_mode, ready=_ready):
    """The job list through one serial Session, one job at a time
    (a serial session runs one job at a time anyway)."""
    from repro.api import EngineConfig, Session
    from repro.core.batch import job_request

    session = Session(EngineConfig(n_workers=1))
    ready()
    if args.phase == "setup":
        session.close()
        return None
    jobs = suite_jobs(args.analysis_seed, backend, eval_mode)
    random.Random(args.seed).shuffle(jobs)
    if args.limit:
        jobs = jobs[: args.limit]
    outcomes = []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        for job in jobs:
            outcomes.append(_suite_job(session, job, job_request))
        wall = time.perf_counter() - start
    mark = _mark()
    session.close()
    return {"wall_s": wall, "mark": mark, "jobs": outcomes, "probe_s": probe.samples}


def _suite_job(session, job, job_request):
    key = f"{job.analysis} {job.target}"
    t0 = time.perf_counter()
    try:
        request = job_request(job)
        report = session.submit(
            request.analysis,
            request.target,
            spec=request.spec,
            config=request.config,
            **request.options,
        ).result(timeout=170)
    except Exception as exc:
        return _job_outcome(key, error=f"{type(exc).__name__}: {exc}")
    return _job_outcome(key, report, window=(t0, time.perf_counter()))


def _scan_key(result, tree: Path) -> str:
    target = result.target
    prefix = str(tree) + os.sep
    if target.startswith(prefix):
        target = target[len(prefix) :]
    return f"{result.analysis} {target}"


def run_scan(args, eval_mode=None, ready=_ready):
    from repro.scan import ScanConfig, scan_project

    ready()
    if args.phase == "setup":
        return None
    work = Path(tempfile.mkdtemp(prefix="scan-", dir=WORK_DIR))
    tree = work / "examples"
    if args.limit:
        (tree / "c").mkdir(parents=True)
        shutil.copy2(ROOT / "examples" / "c" / "fig.c", tree / "c" / "fig.c")
    else:
        shutil.copytree(
            ROOT / "examples", tree, ignore=shutil.ignore_patterns("__pycache__")
        )
    stamps, on_event = _events_clock()
    config = ScanConfig(
        analyses=SCAN_ANALYSES,
        n_workers=2,
        seed=args.analysis_seed,
        smoke=True,
        eval_mode=eval_mode,
        store_dir=str(work / "store"),
        on_event=on_event,
    )
    t0 = time.perf_counter()
    with SpeedProbe() as probe:
        report = scan_project(str(tree), config)
    wall = time.perf_counter() - t0
    mark = _mark()
    windows = sorted(
        (s["JobStarted"], s["JobFinished"])
        for s in stamps.values()
        if "JobStarted" in s and "JobFinished" in s
    )
    result = {
        "wall_s": wall,
        "mark": mark,
        "jobs": [_scan_outcome(r, tree) for r in report.results],
        "job_windows": windows,
        "n_evals": report.n_evals,
        "rescan_s": [],
        "rescans": [],
        "probe_s": probe.samples,
    }
    if args.phase == "reference":
        shutil.rmtree(work, ignore_errors=True)
        return result
    stamp = time.time()
    deadline = time.perf_counter() + args.seconds
    with SpeedProbe() as probe:
        while len(result["rescan_s"]) < MIN_RESCANS or time.perf_counter() < deadline:
            stamp += 1.0
            _bump_mtimes(tree, stamp)
            t0 = time.perf_counter()
            again = scan_project(str(tree), config)
            result["rescan_s"].append(time.perf_counter() - t0)
            result["rescans"].append(
                {
                    "n_cached": again.n_cached,
                    "n_evals": again.n_evals,
                    "jobs": [_scan_outcome(r, tree) for r in again.results],
                }
            )
    result["rescan_probe_s"] = probe.samples
    shutil.rmtree(work, ignore_errors=True)
    return result


def _scan_outcome(result, tree: Path):
    outcome = {
        "key": _scan_key(result, tree),
        "verdict": result.verdict,
        "findings": sorted(
            [str(f.get("kind", "")), str(f.get("label", ""))] for f in result.findings
        ),
        "n_evals": result.n_evals,
        "error": result.error or ("partial" if result.partial else ""),
    }
    return outcome


def serve_payloads(analysis_seed: int):
    """``(key, payload)`` for each job of the serve cycle."""
    out = []
    for analysis, target in SERVE_CYCLE:
        spec = target
        if target.startswith("examples/"):
            path, entry = target.split("::")
            spec = f"{ROOT / path}::{entry}"
        payload = {"analysis": analysis, "target": spec, "seed": analysis_seed, "smoke": True}
        out.append((f"{analysis} {target}", payload))
    return out


def run_serve(args, ready=_ready):
    import importlib

    from repro.api.registry import available_analyses, get_analysis
    from repro.serve import ReproServer, ServeClient, ServeConfig

    # Two concurrent first submissions can race on the lazy imports of
    # the analysis registry and the frontends (a module-lock deadlock,
    # answered with HTTP 503), so set-up imports them once up front.
    for name in available_analyses():
        get_analysis(name)
    for module in ("repro.cfront", "repro.fpir.frontend", "repro.programs"):
        importlib.import_module(module)
    work = Path(tempfile.mkdtemp(prefix="serve-", dir=WORK_DIR))
    keys = tuple("ab"[:SERVE_CLIENTS])
    server = ReproServer(
        ServeConfig(port=0, n_workers=2, store_dir=str(work / "store"), api_keys=keys)
    ).start()
    ready()
    if args.phase == "setup":
        server.close()
        shutil.rmtree(work, ignore_errors=True)
        return None
    cycle = serve_payloads(args.analysis_seed)
    n_jobs = args.limit or SERVE_JOBS
    order = [i % len(cycle) for i in range(n_jobs)]
    random.Random(args.seed).shuffle(order)
    outcomes = [None] * n_jobs
    client_stats = {"submit_s": [], "first_event_s": [], "queue_wait_s": [], "connects": 0}
    lock = threading.Lock()

    class CountingClient(ServeClient):
        """Counts SSE connections; ``watch`` reconnects through ``events``."""

        def events(self, *a, **k):
            with lock:
                client_stats["connects"] += 1
            return super().events(*a, **k)

    def client_loop(slot: int) -> None:
        client = CountingClient(server.url, api_key=keys[slot], timeout=60.0)
        for index in range(slot, n_jobs, len(keys)):
            key, payload = cycle[order[index]]
            outcomes[index] = _serve_job(client, key, payload, client_stats, lock)

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client_loop, args=(k,)) for k in range(len(keys))]
    with SpeedProbe() as probe:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - t0
    mark = _mark()
    server.close()
    shutil.rmtree(work, ignore_errors=True)
    return {
        "wall_s": wall,
        "mark": mark,
        "jobs": [o or {"key": f"job {i}", "error": "no outcome"} for i, o in enumerate(outcomes)],
        "client": client_stats,
        "probe_s": probe.samples,
    }


def _serve_job(client, key, payload, stats, lock):
    from repro.serve import ServeError

    t0 = time.perf_counter()
    try:
        job = client.submit(payload)
        t_submit = time.perf_counter()
        first = started = finished = None
        record = {}
        for record in client.watch(job["id"]):
            now = time.perf_counter()
            if first is None:
                first = now
            if record.get("event") == "JobStarted":
                started = now
            if record.get("event") == "JobFinished":
                finished = now
                break
        if finished is None:
            return {"key": key, "error": "stream ended without JobFinished"}
        if record.get("error"):
            return {"key": key, "error": record["error"]}
        settled = client.wait(job["id"], timeout=60.0, poll=0.002)
        report = settled.get("report") or {}
    except (ServeError, OSError, TimeoutError) as exc:
        return {"key": key, "error": f"{type(exc).__name__}: {exc}"}
    with lock:
        stats["submit_s"].append(t_submit - t0)
        stats["first_event_s"].append(first - t_submit)
        if started is not None:
            stats["queue_wait_s"].append(started - t0)
    return {
        "key": key,
        "verdict": report.get("verdict"),
        "findings": sorted([f["kind"], f["label"]] for f in report.get("findings", [])),
        "n_evals": report.get("n_evals", 0),
        "window": (t0, finished),
        "error": "" if settled.get("state") == "done" else f"state {settled.get('state')}",
    }


def run_serve_reference(args):
    """The serve cycle's jobs, serially on the interpreter tier."""
    from repro.api import EngineConfig, Session
    from repro.core.batch import job_request
    from repro.serve.wire import parse_job_payload

    outcomes = []
    with Session(EngineConfig(n_workers=1)) as session:
        for key, payload in serve_payloads(args.analysis_seed):
            _, job = parse_job_payload(dict(payload, eval_mode="interpreter"))
            request = job_request(job)
            report = session.run(
                request.analysis,
                request.target,
                spec=request.spec,
                config=request.config,
                **request.options,
            )
            outcomes.append(_job_outcome(key, report))
    return {"wall_s": 0.0, "jobs": outcomes}


def run_workload(args):
    if args.workload in ("suite-scalar", "suite-batch"):
        backend, eval_mode = SUITE_TIERS[args.workload]
        if args.phase == "reference":
            return run_suite(args, backend, "interpreter", ready=lambda: None)
        return run_suite(args, backend, eval_mode)
    if args.workload == "scan-examples":
        if args.phase == "reference":
            return run_scan(args, eval_mode="interpreter", ready=lambda: None)
        return run_scan(args)
    if args.phase == "reference":
        return run_serve_reference(args)
    return run_serve(args)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (the
    pool workers are reaped when their pool closes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--phase", choices=("setup", "run", "reference"), default="run")
    parser.add_argument("--seed", type=int, default=20190622)
    parser.add_argument("--analysis-seed", type=int, default=20190622)
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=0, help="tiny run: first N jobs")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    WORK_DIR.mkdir(exist_ok=True)
    global _TRACE
    spans = []
    import repro  # noqa: F401

    if args.trace:
        import tracing

        _TRACE = tracing
        spans = tracing.install(per_eval=args.workload.startswith("suite-"))
    result = run_workload(args)
    if result is None:
        result = {}
    else:
        result["peak_rss_mb"] = peak_rss_mb()
    result["setup_probe_s"] = _SETUP_PROBE
    if args.trace and "jobs" in result:
        result["spans"] = tracing.totals()
        result["spans_installed"] = spans
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
