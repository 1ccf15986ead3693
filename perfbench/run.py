"""The repository benchmark: time-to-verdict on four workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite-scalar --seed 1 --seconds 2 --trace 0

Each measurement runs in a fresh interpreter (``child.py``), so
``setup_s`` includes ``import repro``.  With ``--trace 0`` the last
line of standard output is one JSON object holding every end-to-end
metric of ``BENCHMARK.json``; with ``--trace 1`` it holds the
per-layer metrics instead, taken from a traced run (``tracing.py``)
and compared against an untraced one for the tracing overhead.

``--seed`` orders the workload's jobs (the inputs' arrangement); the
analyses themselves run with ``--analysis-seed`` (default 20190622),
whose interpreter-tier reference ships in ``reference/``.  For any
other analysis seed the harness first generates that seed's reference
(cached under ``.perfbench-work/``).  ``--write-reference`` regenerates
the shipped ones.

Every job's verdict and sorted finding ``(kind, label)`` list must
match the reference; mismatches, errors and timeouts count in
``failed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE_DIR = HERE / "reference"
CACHE_DIR = ROOT / ".perfbench-work" / "references"
DEFAULT_SEED = 20190622
WORKLOADS = ("suite-scalar", "suite-batch", "scan-examples", "serve-mixed")
#: Extra fresh interpreters that only set up, for a median ``setup_s``.
SETUP_SAMPLES = 4
#: CPU seconds of one ``child.probe_chunk`` at the reference speed (a
#: quiet 2-CPU container, Python 3.11).  Reported times are scaled to it.
PROBE_REFERENCE_S = 1.4e-3
CHILD_TIMEOUT = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, a child failed)."""


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


def run_child(
    workload: str, phase: str, args, trace: int = 0, timeout: float = CHILD_TIMEOUT
) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Start one fresh interpreter; returns ``(setup_s, result)``."""
    cmd = [
        sys.executable,
        str(CHILD),
        "--workload",
        workload,
        "--phase",
        phase,
        "--seed",
        str(args.seed),
        "--analysis-seed",
        str(args.analysis_seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(trace),
        "--limit",
        str(args.limit),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT ") :])
            if time.perf_counter() - t0 > timeout:
                break
        proc.wait(timeout=max(1.0, timeout - (time.perf_counter() - t0)))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{workload} {phase}: child exited with {proc.returncode}")
    if phase != "reference" and (setup_s is None or result is None):
        raise BenchError(f"{workload} {phase}: child never reported READY and a result")
    return setup_s or 0.0, result


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def reference_path(workload: str, analysis_seed: int) -> Path:
    if analysis_seed == DEFAULT_SEED:
        return REFERENCE_DIR / f"{workload}.json"
    return CACHE_DIR / f"{workload}-{analysis_seed}.json"


def make_reference(workload: str, args) -> Dict[str, Any]:
    _, result = run_child(workload, "reference", args, timeout=900.0)
    jobs = {}
    for job in result["jobs"]:
        if job.get("error"):
            raise BenchError(f"reference job {job['key']} failed: {job['error']}")
        jobs[job["key"]] = {"verdict": job["verdict"], "findings": job["findings"]}
    return {
        "workload": workload,
        "analysis_seed": args.analysis_seed,
        "eval_mode": "interpreter",
        "jobs": dict(sorted(jobs.items())),
    }


def load_reference(workload: str, args) -> Dict[str, Any]:
    path = reference_path(workload, args.analysis_seed)
    if not path.is_file():
        if args.analysis_seed == DEFAULT_SEED:
            raise BenchError(f"missing shipped reference {path}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(make_reference(workload, args), indent=1) + "\n")
    return json.loads(path.read_text())


def compare(jobs: List[Dict[str, Any]], reference: Dict[str, Any]) -> Tuple[int, List[str]]:
    """``(attempted, failures)`` of ``jobs`` against ``reference``.

    A job fails when it errored, has no reference entry, or its verdict
    or sorted ``(kind, label)`` findings differ.  Evaluation counts are
    not compared: fewer evaluations to the same verdicts is a gain.
    """
    expected = reference["jobs"]
    failures = []
    for job in jobs:
        ref = expected.get(job["key"])
        if job.get("error"):
            failures.append(f"{job['key']}: {job['error']}")
        elif ref is None:
            failures.append(f"{job['key']}: not in the reference")
        elif job["verdict"] != ref["verdict"]:
            failures.append(f"{job['key']}: verdict {job['verdict']} != {ref['verdict']}")
        elif [list(f) for f in job["findings"]] != [list(f) for f in ref["findings"]]:
            failures.append(f"{job['key']}: findings differ from the reference")
    return len(jobs), failures


def check_run(
    result: Dict[str, Any], reference: Dict[str, Any], limited: bool = False
) -> Tuple[int, List[str]]:
    """Compare every outcome of one run, plus the workload's own checks.

    Every reference job must have run, unless the run was ``limited``
    to a few jobs (the self-test).
    """
    attempted, failures = compare(result["jobs"], reference)
    seen = {job["key"] for job in result["jobs"]}
    missing = [] if limited else sorted(set(reference["jobs"]) - seen)
    attempted += len(missing)
    failures += [f"{key}: never ran" for key in missing]
    for index, rescan in enumerate(result.get("rescans", [])):
        n, rescan_failures = compare(rescan["jobs"], reference)
        attempted += n
        failures += [f"re-scan {index}: {f}" for f in rescan_failures]
        # An unchanged re-scan must replay every cold result from the
        # store and run the engine zero times.
        expected = len(result["jobs"])
        attempted += 1
        if rescan["n_cached"] != expected or rescan["n_evals"] != 0:
            failures.append(
                f"re-scan {index}: {rescan['n_cached']}/{expected} store hits, "
                f"{rescan['n_evals']} evals"
            )
    return attempted, failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def quantile(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile (``q`` in (0, 1)).

    A Beta-weighted mean of every order statistic rather than an
    interpolation between two neighbours: on a few dozen jobs of very
    different lengths it does not jump when two jobs trade places.
    """
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    if n <= 1:
        return ordered[0] if ordered else 0.0  # every job failed
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    edges = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((edges[i + 1] - edges[i]) * x for i, x in enumerate(ordered))


def speed_scale(probe_s: List[float]) -> float:
    """Factor from measured seconds to seconds at the reference speed.

    ``probe_s`` holds CPU times of the same probe chunk sampled evenly
    in wall time across a window; the work done in the window at the
    reference speed is the window's length times the mean of
    ``reference / probe``.  A run without probes is left unscaled.
    """
    if not probe_s:
        return 1.0
    return statistics.fmean(PROBE_REFERENCE_S / c for c in probe_s)


def window_scale(probes: List[List[float]], t0: float, t1: float) -> float:
    """:func:`speed_scale` of the probes taken while ``[t0, t1]`` ran,
    or of the nearest one when the window is shorter than a period."""
    inside = [c for t, c in probes if t0 <= t <= t1]
    if not inside and probes:
        middle = (t0 + t1) / 2.0
        inside = [min(probes, key=lambda p: abs(p[0] - middle))[1]]
    return speed_scale(inside)


def scaled_setup(setup_s: float, result: Dict[str, Any]) -> float:
    return setup_s * speed_scale(result["setup_probe_s"])


def job_latencies(result: Dict[str, Any]) -> List[float]:
    """Per-job latencies, each scaled by the probes taken while it ran."""
    windows = result.get("job_windows")
    if windows is None:
        windows = [job["window"] for job in result["jobs"] if not job.get("error")]
    probes = result["probe_s"]
    return [(t1 - t0) * window_scale(probes, t0, t1) for t0, t1 in windows]


def end_to_end(result: Dict[str, Any], setups: List[float]) -> Dict[str, Any]:
    """The end-to-end metrics of one run; ``setups`` are already scaled."""
    scale = speed_scale([c for _, c in result["probe_s"]])
    latencies = job_latencies(result)
    n_evals = result.get("n_evals")
    if n_evals is None:
        n_evals = sum(job.get("n_evals", 0) for job in result["jobs"])
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (result["wall_s"] * scale, "s"),
        "job_mean_s": (statistics.fmean(latencies) if latencies else 0.0, "s"),
        "job_p95_s": (quantile(latencies, 0.95), "s"),
        "n_evals": (n_evals, "count"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: Dict[str, Any], untraced: Dict[str, Any]) -> Dict[str, Any]:
    """The per-layer metrics of one traced run.

    Layer metrics cover the timed window (the job list, or the cold
    scan); the scan's re-scan metrics cover the re-scans that follow
    it, per re-scan.  ``untraced`` supplies the baseline for the
    tracing overhead and the re-scan time users see.
    """
    mark = traced["mark"]
    spans = mark["spans"]
    final = traced["spans"]

    def rec(name: str, source=spans) -> List[float]:
        return source.get(name, [0, 0.0, 0.0, 0.0, 0.0])

    def after(name: str) -> List[float]:
        return [b - a for a, b in zip(rec(name), rec(name, final))]

    w, wb = rec("w"), rec("w.batch")
    objective, backend = rec("objective"), rec("backend")
    parallel, pool_round = rec("parallel"), rec("pool.round")
    get, put, load = rec("scan.store.get"), rec("scan.store.put"), rec("scan.store.load")
    walker, classify = rec("scan.walker"), rec("scan.classify")
    session = mark["session"]
    client = traced.get("client") or {}
    scale = speed_scale([c for _, c in traced["probe_s"]])
    base_scale = speed_scale([c for _, c in untraced["probe_s"]])
    rescan_scale = speed_scale([c for _, c in untraced.get("rescan_probe_s", [])])
    rescans = [t * rescan_scale for t in untraced.get("rescan_s") or []]
    n_rescans = after("scan.walker")[0]
    rescan_gets = after("scan.store.get")

    def median_of(key: str) -> float:
        values = client.get(key) or []
        return statistics.median(values) if values else 0.0

    values = {
        "api.targets.resolve_calls": (rec("targets.resolve")[0], "count"),
        "api.targets.resolve_s": (rec("targets.resolve")[1], "s"),
        "fpir.instrument.calls": (rec("instrument")[0], "count"),
        "fpir.instrument.s": (rec("instrument")[1], "s"),
        "fpir.compiler.calls": (rec("compiler")[0], "count"),
        "fpir.compiler.s": (rec("compiler")[1], "s"),
        "fpir.batch_eval.compile_calls": (rec("batch_compile")[0], "count"),
        "fpir.batch_eval.compile_s": (rec("batch_compile")[1], "s"),
        "core.weak_distance.evals": (w[0], "count"),
        "core.weak_distance.s": (w[2], "s"),
        "core.weak_distance.us_per_eval": (_ratio(w[2], w[0]) * 1e6, "us"),
        "core.weak_distance.batch_calls": (wb[0], "count"),
        "core.weak_distance.batch_points": (wb[3], "count"),
        "core.weak_distance.points_per_batch": (_ratio(wb[3], wb[0]), "count"),
        "core.weak_distance.batch_s": (wb[2], "s"),
        "core.weak_distance.us_per_batch_point": (_ratio(wb[2], wb[3]) * 1e6, "us"),
        "core.weak_distance.batch_fallbacks": (wb[4], "count"),
        "mo.objective.calls": (objective[0], "count"),
        "mo.objective.self_s": (objective[2], "s"),
        "mo.backend.starts": (backend[0], "count"),
        "mo.backend.self_s": (backend[2], "s"),
        "mo.backend.evals_per_start": (_ratio(backend[3], backend[0]), "count"),
        "mo.backend.zero_ratio": (_ratio(backend[4], backend[0]), "ratio"),
        "core.parallel.rounds": (parallel[0], "count"),
        "core.parallel.self_s": (parallel[2], "s"),
        "api.session.jobs": (session["jobs"], "count"),
        # Job time not inside an outermost span of a driver thread.
        "api.session.self_s": (max(0.0, session["job_s"] - mark["worker_root_s"]), "s"),
        "api.session.queue_wait_s": (session["queue_wait_s"], "s"),
        "core.pool.rounds": (mark["pools"]["rounds"], "count"),
        "core.pool.round_s": (pool_round[1], "s"),
        "core.pool.programs": (mark["pools"]["programs"], "count"),
        "core.pool.rebuilds": (mark["pools"]["rebuilds"], "count"),
        "core.pool.crash_retries": (mark["pools"]["crash_retries"], "count"),
        "scan.walker.s": (walker[1], "s"),
        "scan.walker.files": (walker[3], "count"),
        "scan.classify.s": (classify[1], "s"),
        "scan.classify.functions": (classify[3], "count"),
        "scan.classify.lowerable": (classify[4], "count"),
        "scan.store.gets": (get[0], "count"),
        "scan.store.puts": (put[0], "count"),
        "scan.store.s": (get[1] + put[1] + load[1], "s"),
        "scan.rescan_s": (statistics.median(rescans) if rescans else 0.0, "s"),
        "scan.rescan.hit_ratio": (_ratio(rescan_gets[3], rescan_gets[0]), "ratio"),
        "scan.rescan.resolve_s": (_ratio(after("targets.resolve")[1], n_rescans), "s"),
        "scan.rescan.classify_s": (_ratio(after("scan.classify")[1], n_rescans), "s"),
        "static.analyze_calls": (rec("static.analyze")[0], "count"),
        "static.analyze_s": (rec("static.analyze")[1], "s"),
        "serve.client.submit_s": (median_of("submit_s"), "s"),
        "serve.client.first_event_s": (median_of("first_event_s"), "s"),
        "serve.scheduler.queue_wait_s": (median_of("queue_wait_s"), "s"),
        "serve.checkpoint.appends": (rec("serve.checkpoint")[0], "count"),
        "serve.checkpoint.s": (rec("serve.checkpoint")[1], "s"),
        "serve.client.reconnects": (
            max(0, client.get("connects", 0) - len(client.get("submit_s", []))),
            "count",
        ),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.overhead_ratio": (
            _ratio(traced["wall_s"] * scale, untraced["wall_s"] * base_scale) - 1.0,
            "ratio",
        ),
        # Sum of parts: inside a job the nested self times (session >
        # parallel > backend > objective > W) add up to the job time;
        # what is left is wall time outside every job (overlapping jobs
        # counted once) and outside the main thread's outermost spans.
        "trace.unaccounted_s": (
            traced["wall_s"] - session["busy_s"] - mark["main_root_s"],
            "s",
        ),
    }
    # Times of the traced run scale to the reference speed like the
    # end-to-end ones; the re-scan times are scaled already.
    scaled = {
        name: (value * scale if unit in ("s", "us") else value, unit)
        for name, (value, unit) in values.items()
    }
    scaled["scan.rescan_s"] = values["scan.rescan_s"]
    return {name: {"value": value, "unit": unit} for name, (value, unit) in scaled.items()}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def check_sources() -> None:
    for needed in ("src/repro/__init__.py", "examples"):
        if not (ROOT / needed).exists():
            raise BenchError(
                f"{ROOT / needed} not found: run from a checkout of the repository"
            )


def write_references(args) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in args.workloads or WORKLOADS:
        reference = make_reference(workload, args)
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(reference, indent=1) + "\n")
        print(f"wrote {path} ({len(reference['jobs'])} jobs)", file=sys.stderr)


def run(args) -> Dict[str, Any]:
    reference = load_reference(args.workload, args)
    if args.trace:
        _, untraced = run_child(args.workload, "run", args, trace=0)
        _, traced = run_child(args.workload, "run", args, trace=1)
        attempted, failures = check_run(traced, reference, bool(args.limit))
        n, more = check_run(untraced, reference, bool(args.limit))
        attempted, failures = attempted + n, failures + more
        metrics = per_layer(traced, untraced)
        print("spans: " + ", ".join(traced["spans_installed"]), file=sys.stderr)
    else:
        samples = 0 if args.limit else SETUP_SAMPLES
        setups = [
            scaled_setup(*run_child(args.workload, "setup", args)) for _ in range(samples)
        ]
        setup_s, result = run_child(args.workload, "run", args)
        attempted, failures = check_run(result, reference, bool(args.limit))
        metrics = end_to_end(result, setups + [scaled_setup(setup_s, result)])
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--analysis-seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=0, help="tiny run: first N jobs")
    parser.add_argument(
        "--write-reference",
        dest="workloads",
        nargs="*",
        default=None,
        help="regenerate the shipped references (all workloads by default)",
    )
    args = parser.parse_args(argv)
    try:
        check_sources()
        if args.workloads is not None:
            write_references(args)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        out = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
