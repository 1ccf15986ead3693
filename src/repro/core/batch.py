"""Concurrent batch execution of whole analysis suites.

One reduction parallelizes across its starts
(:mod:`repro.core.parallel`); a *benchmark campaign* — every analysis ×
every subject program, the shape of the paper's Tables 3–5 —
parallelizes across whole analysis runs.  Campaigns run through one
shared :class:`repro.api.session.Session`: every job's rounds fan
their starts across the same persistent worker pool
(:mod:`repro.core.pool`), so campaign-level and start-level
parallelism compose under a single worker budget, warm workers are
reused across jobs, and a program analyzed by several jobs is rebuilt
and compiled once per worker instead of once per job.

Each :class:`BatchJob` is a self-contained description (analysis name,
target, seed, budget knobs); the registered analysis's
``batch_options``/``summarize`` hooks supply the translation, so a new
registered analysis is batch-runnable for free.  :func:`run_batch` is
the one campaign runner: ``repro batch`` and the project scanner
(:mod:`repro.scan.orchestrator`) both run their jobs through it.
Campaigns cross analyses over first-class *targets*
(:mod:`repro.api.targets`): :func:`suite_jobs` accepts any mix of
suite-registry names and Python-frontend specs (``pkg.mod:fn``,
``file.py::fn``), defaulting to the whole suite.  SAT campaigns fan a
whole constraint corpus through the solver (:func:`formula_jobs` /
:func:`read_formula_sources`) — one formula per line of a file, or one
per ``.smt2``-style file of a directory.

A failing job never takes the campaign down: its error is captured on
the :class:`BatchResult` and the remaining jobs keep running.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default campaign analyses (any registered program-kind analysis —
#: canonical name or alias — is accepted, these are just the default).
BATCH_ANALYSES = ("fpod", "coverage", "boundary", "path")


def _batch_runnable(name: str) -> bool:
    """Can ``name`` be crossed with program-kind targets?"""
    from repro.api import get_analysis

    try:
        cls = get_analysis(name)
    except KeyError:
        return False
    return cls.target_kind == "program"


@dataclasses.dataclass(frozen=True)
class BatchJob:
    """One analysis run over one target."""

    analysis: str
    #: A spec string or a resolved :class:`~repro.api.targets.Target`.
    #: A spec is a suite program name, a frontend spec (``pkg.mod:fn``
    #: / ``file.py::fn`` / ``file.c::fn``), or (``sat``) the constraint
    #: text itself; the scanner passes the target its classifier
    #: already lowered.
    target: Any
    seed: Optional[int] = None
    #: Budget knobs, as a tuple of pairs so the job stays hashable:
    #: ``niter`` (backend iterations), ``rounds`` (driver rounds /
    #: starts), ``max_samples`` (boundary-analysis sample cap),
    #: ``n_starts`` (sat starts).
    params: Tuple[Tuple[str, Any], ...] = ()
    #: Display name for campaign tables (defaults to ``target``; set
    #: for formula jobs, whose constraint text makes a poor column).
    label: str = ""

    def param(self, name: str, default: Any = None) -> Any:
        return dict(self.params).get(name, default)

    @property
    def display(self) -> str:
        return self.label or str(self.target)


@dataclasses.dataclass
class BatchResult:
    """Outcome of one batch job."""

    job: BatchJob
    summary: str
    #: The job's :class:`~repro.api.report.AnalysisReport` (its time,
    #: ``partial`` salvage flag and ``n_crash_retries``), or None when
    #: the job failed.
    report: Any = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def suite_jobs(
    analyses: Optional[Sequence[str]] = None,
    targets: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
    niter: int = 30,
    rounds: int = 20,
    max_samples: Optional[int] = None,
    racing: bool = False,
) -> List[BatchJob]:
    """The cross product: every requested analysis on every target.

    ``targets`` mixes suite-registry names with frontend specs
    (``pkg.mod:fn``, ``file.py::fn``, ``file.c::fn``) and defaults to
    the whole suite.
    Every target is validated up front so typos fail the campaign
    before any job runs: suite names against the registry, file specs
    by fully lowering the file (cached, so the jobs reuse the result),
    module specs by locating the module without executing it (parent
    packages of a dotted path are imported, as the import machinery
    requires) — only a bad *entry name* inside an otherwise-importable
    module is left to surface at job time.  ``racing=True`` runs every
    job in the engine's non-deterministic racing mode (first zero
    cancels the round's remaining starts — faster, same verdicts,
    representatives may differ between runs).
    """
    from repro.api.targets import (
        CTarget,
        ProgramTarget,
        PythonTarget,
        TargetError,
        parse_target_spec,
    )
    from repro.fpir.frontend import FrontendError
    from repro.programs import list_programs

    if analyses is None:
        analyses = BATCH_ANALYSES
    if targets is None:
        targets = list_programs()
    unknown = sorted({a for a in analyses if not _batch_runnable(a)})
    if unknown:
        raise ValueError(
            f"unknown analyses {unknown}; known program-kind "
            f"analyses include {list(BATCH_ANALYSES)}"
        )
    suite = set(list_programs())
    resolved = []
    for spec in targets:
        try:
            target = parse_target_spec(spec)
        except TargetError as exc:
            raise ValueError(f"bad target {spec!r}: {exc}") from exc
        if isinstance(target, ProgramTarget) and target.name not in suite:
            raise ValueError(
                f"unknown program {spec!r}; registered: {sorted(suite)} "
                "(or use a pkg.mod:fn / file.py::fn Python target)"
            )
        if isinstance(target, (PythonTarget, CTarget)):
            try:
                target.check()
            except (TargetError, FrontendError) as exc:
                raise ValueError(f"bad target {spec!r}: {exc}") from exc
        resolved.append((spec, target))
    params = (
        ("niter", niter),
        ("rounds", rounds),
        ("max_samples", max_samples),
        ("racing", racing),
    )
    return [
        BatchJob(
            analysis=a,
            target=spec,
            seed=seed,
            params=params,
            label=target.describe(),
        )
        for a in analyses
        for spec, target in resolved
    ]


# ---------------------------------------------------------------------------
# Multi-formula SAT campaigns (the XSat workload shape)
# ---------------------------------------------------------------------------

#: Comment leaders recognized in formula files (``;`` is the
#: SMT-LIB convention, ``#`` the shell one).
_FORMULA_COMMENTS = (";", "#", "//")


def _strip_formula_line(line: str) -> str:
    stripped = line.strip()
    for leader in _FORMULA_COMMENTS:
        if stripped.startswith(leader):
            return ""
    return stripped


def read_formula_sources(path: str) -> List[Tuple[str, str]]:
    """``(label, constraint)`` pairs from a file or directory.

    A *file* holds one constraint per non-empty, non-comment line
    (labelled ``<stem>:<lineno>``).  A *directory* holds one
    ``.smt2``-style constraint file per formula: its non-comment lines
    are joined into a single constraint, labelled by the file's stem.
    """
    root = Path(path)
    if not root.exists():
        raise FileNotFoundError(f"no formula file or directory at {path!r}")
    sources: List[Tuple[str, str]] = []
    if root.is_dir():
        for entry in sorted(root.iterdir()):
            if not entry.is_file():
                continue
            lines = [
                _strip_formula_line(line)
                for line in entry.read_text().splitlines()
            ]
            constraint = " ".join(line for line in lines if line)
            if constraint:
                sources.append((entry.stem, constraint))
    else:
        for lineno, line in enumerate(root.read_text().splitlines(), start=1):
            constraint = _strip_formula_line(line)
            if constraint:
                sources.append((f"{root.stem}:{lineno}", constraint))
    if not sources:
        raise ValueError(f"no constraints found under {path!r}")
    return sources


def formula_jobs(
    source: str,
    seed: Optional[int] = None,
    niter: int = 50,
    n_starts: Optional[int] = None,
    racing: bool = False,
) -> List[BatchJob]:
    """One ``sat`` job per constraint found under ``source``."""
    params = (("niter", niter), ("n_starts", n_starts), ("racing", racing))
    return [
        BatchJob(
            analysis="sat",
            target=constraint,
            seed=seed,
            params=params,
            label=label,
        )
        for label, constraint in read_formula_sources(source)
    ]


# ---------------------------------------------------------------------------
# Campaign execution over one shared session
# ---------------------------------------------------------------------------


def job_request(job: BatchJob):
    """Translate one :class:`BatchJob` into a session job request.

    The one place a campaign job's budget knobs become engine options
    and an :class:`~repro.api.engine.EngineConfig`, shared by
    ``repro batch``, the project scanner
    (:mod:`repro.scan.orchestrator`) and ``repro serve``
    (:mod:`repro.serve.wire`), so every campaign shape budgets
    identically.  Beyond the classic knobs (``niter``, ``rounds``,
    ``max_samples``, ``racing``) a job may carry ``backend``,
    ``eval_mode``, ``n_starts``, and ``smoke`` (True = the analysis's
    tiny CI budget from ``smoke_options`` instead of its
    ``batch_options``, with an explicit ``niter`` / ``n_starts`` still
    winning).  The smoke budget has no ``rounds`` or ``max_samples``
    knob, so a non-None one next to ``smoke`` raises ``ValueError``
    naming it rather than being dropped, as the serve wire and the
    scanner reject it too.

    Raises (e.g. ``KeyError`` for an unknown analysis) instead of
    capturing — the caller turns per-job exceptions into
    :class:`BatchResult` errors.
    """
    from repro.api import EngineConfig, JobRequest, get_analysis

    cls = get_analysis(job.analysis)
    params = dict(job.params)
    backend_options = {"niter": job.param("niter", 30)}
    n_starts = job.param("n_starts")
    max_rounds = None
    if job.param("smoke"):
        for knob in ("rounds", "max_samples"):
            if job.param(knob) is not None:
                raise ValueError(
                    f"{knob!r} cannot be combined with 'smoke' (a smoke job "
                    "runs the analysis's smoke budget)"
                )
        smoke = dict(cls.smoke_options)
        smoke_niter = smoke.pop("niter", None)
        if smoke_niter is not None and job.param("niter") is None:
            backend_options["niter"] = smoke_niter
        if n_starts is None:
            n_starts = smoke.pop("n_starts", None)
        max_rounds = smoke.pop("max_rounds", None)
        options = {
            key: value
            for key, value in smoke.items()
            if key not in ("n_starts", "max_rounds") and value is not None
        }
    else:
        options = {
            key: value
            for key, value in cls.batch_options(params).items()
            if value is not None
        }
    config = EngineConfig(
        seed=job.seed,
        backend=job.param("backend"),
        backend_options=backend_options,
        n_starts=n_starts,
        max_rounds=max_rounds,
        deterministic=not job.param("racing", False),
        eval_mode=job.param("eval_mode"),
    )
    return JobRequest(
        analysis=job.analysis,
        target=job.target,
        options=options,
        config=config,
    )


def run_batch(
    jobs: Sequence[BatchJob],
    n_workers: int = 1,
    session=None,
    on_event=None,
    event_sink=None,
) -> List[BatchResult]:
    """Run ``jobs`` through one shared worker-pool session.

    Results come back in job order; per-job failures are captured on
    the result (``error``) instead of aborting the campaign, a
    crash-healed job's report counts its salvage cycles
    (``n_crash_retries``), and a job cancelled mid-run contributes its
    salvaged partial report (``partial=True``) rather than vanishing.
    Pass an existing :class:`repro.api.session.Session` to compose the
    campaign with other work on the same warm pool; otherwise a
    session with ``n_workers`` processes is created for the campaign
    and torn down after.  ``on_event`` streams every job's typed
    progress events (:mod:`repro.api.events`); it is attached per job,
    so it works with an injected session too.  ``event_sink`` mirrors
    the events machine-readably (a JSONL path/file or callback; only
    honored when the campaign builds its own session).
    """
    from repro.api import EngineConfig, Session

    results: Dict[int, BatchResult] = {}
    own_session = session is None
    if own_session:
        session = Session(EngineConfig(n_workers=n_workers), event_sink=event_sink)
    try:
        handles: List[Tuple[int, Any]] = []
        for index, job in enumerate(jobs):
            try:
                request = job_request(job)
                handle = session.submit(
                    request.analysis,
                    request.target,
                    spec=request.spec,
                    config=request.config,
                    on_event=on_event,
                    **request.options,
                )
                handles.append((index, handle))
            except Exception as exc:
                results[index] = _error_result(jobs[index], exc)
        from concurrent.futures import CancelledError

        from repro.api import get_analysis

        for index, handle in handles:
            try:
                try:
                    report = handle.result()
                except CancelledError:
                    # A cancelled job still yields its salvaged
                    # partial report when one exists.
                    report = handle.partial_result()
                    if report is None:
                        raise
                cls = get_analysis(jobs[index].analysis)
                results[index] = BatchResult(
                    job=jobs[index], summary=cls.summarize(report), report=report
                )
            except (Exception, CancelledError) as exc:
                results[index] = _error_result(jobs[index], exc)
    finally:
        if own_session:
            session.close()
    return [results[i] for i in range(len(jobs))]


def _error_result(job: BatchJob, exc: BaseException) -> BatchResult:
    return BatchResult(job=job, summary="", error=f"{type(exc).__name__}: {exc}")
