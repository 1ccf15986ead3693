"""Process-pool execution of multi-start weak-distance minimization.

Algorithm 2's multi-start loop is embarrassingly parallel: every start
explores F^N independently and the only coupling is the termination
rule — once *any* start samples ``W(x) == 0`` no smaller minimum can
exist (Section 4.4), so all other starts may stop.  This module fans
the starts of one reduction across a pool of worker processes:

* **Shipping W.**  A :class:`~repro.core.weak_distance.WeakDistance`
  pickles as its instrumented FPIR program (hook-free, see
  :class:`~repro.fpir.instrument.InstrumentationSpec`) and executor
  settings — no label sets, no compiled code — so every pool task
  carries the program itself, plus a snapshot of the parent's label
  sets.  Each worker unpickles and compiles W once per program and
  reuses it for every start it is handed.

* **Determinism.**  The parent derives one child generator per start
  (:func:`repro.util.rng.derive_round_rngs`), samples the starting
  point itself, and ships the post-sampling generator with the task.
  A worker therefore replays exactly the evaluation sequence the serial
  loop would have produced for that start.

* **Early cancellation.**  The first worker to reach a zero sets the
  round's cancel flag; every other worker's
  :class:`~repro.mo.base.Objective` polls it per evaluation and stops.

* **One merge for every round.**  Every round — one start at a time,
  lockstep or pooled — yields one :class:`StartReport` per start it
  ran, and :func:`merge_reports` folds them in start order into a
  :class:`MultiStartOutcome` (attempts, evaluation counts, recorded
  sampling sequences).  Label sets are not part of it: Algorithm 3's
  set ``L`` and coverage's set ``B`` grow only between rounds, in the
  parent, so a round reads them and never writes them.

* **Self-healing rounds.**  A crash in any worker does not discard
  the round: completed sibling reports are kept and only the lost
  starts are resubmitted to a fresh executor, replaying their shipped
  per-start generators byte-identically (bounded by
  ``max_crash_retries``; exhaustion raises :class:`WorkerCrashError`
  naming the start).

* **Lockstep serial rounds.**  Without a pool, a round that no zero
  can cut short, whose backend speaks ask/tell
  (:meth:`repro.mo.base.MOBackend.steps`: basinhopping, population,
  random-search) on a vectorized W, steps all its starts together
  through the one driver loop (:func:`repro.mo.base.drive`).  A step
  of at least :data:`~repro.mo.base.BATCH_MIN_POINTS` points (a
  population generation) is one kernel call; a narrower one is scored
  point by point.  Basinhopping asks one point per live start, so its
  steps stay scalar while fewer than ``BATCH_MIN_POINTS`` starts are
  live, and reach the kernel in a wider round.  Each start still walks
  the trajectory it walks alone.

* **Round identity.**  :func:`round_key` digests everything a
  deterministic round's outcome depends on, so
  :class:`repro.api.session.Session` can serve a round that already
  ran from its round-outcome cache instead of running it again.

There is one executor: :class:`repro.core.pool.WorkerPool`.
``run_multistart(..., pool=...)`` fans a round across a persistent
pool whose warm workers cache unpickled weak distances by content
digest (see :mod:`repro.core.pool` and
:class:`repro.api.session.Session`); without a pool, the round runs
in process.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import threading
import time
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.weak_distance import WeakDistance
from repro.mo.base import MOBackend, MOResult, Objective, Sample, drive
from repro.util.digest import canonical_pickle, digest_bytes


#: Salvage cycles a round may spend resubmitting crashed starts before
#: giving up (see :class:`CrashNotice`); the default for
#: ``EngineConfig.max_crash_retries``.
DEFAULT_CRASH_RETRIES = 2

#: How often (seconds) a pooled round waiting on its futures polls
#: the parent-side stop event (see :mod:`repro.core.pool`).
STOP_POLL_SECONDS = 0.05

#: How often (seconds) a worker's parent-death watchdog polls
#: ``os.getppid()`` (see :func:`watch_parent`).
PARENT_WATCH_SECONDS = 1.0


def watch_parent(poll_seconds: float = PARENT_WATCH_SECONDS) -> None:
    """Hard-exit this worker process when its parent dies.

    A SIGKILLed parent can never close the pool's call-queue pipes for
    its workers: every fork-inherited fd (including the *write* ends
    the worker itself holds) stays open in the child, so the worker
    blocks on the queue forever instead of seeing EOF.  The orphan then
    leaks — together with everything else it inherited, such as a
    server's listening socket, which keeps the port bound and blocks a
    restart (``repro serve --resume``) on the same address.

    Called from the pool initializers, this starts a daemon thread that
    polls ``os.getppid()`` and ``os._exit``\\ s the moment the worker is
    re-parented (parent gone).  ``os._exit`` on purpose: the process is
    mid-task with a dead coordinator; running atexit/finalizers could
    block on the same dead pipes this is escaping.
    """
    parent = os.getppid()

    def _watch() -> None:
        while os.getppid() == parent:
            time.sleep(poll_seconds)
        os._exit(2)

    threading.Thread(
        target=_watch, name="repro-parent-watch", daemon=True
    ).start()


class WorkerCrashError(RuntimeError):
    """A multi-start worker died or raised and the retry budget ran out.

    Raised only once ``max_crash_retries`` salvage cycles (resubmitting
    the lost starts to a fresh executor) have failed to complete the
    round; completed sibling starts are never the casualty of a single
    crash.
    """

    def __init__(self, start_index: int, cause: BaseException) -> None:
        super().__init__(f"worker running start #{start_index} crashed: {cause!r}")
        self.start_index = start_index
        self.cause = cause


@dataclasses.dataclass(frozen=True)
class CrashNotice:
    """One salvage cycle, reported to ``run_multistart(on_crash=...)``.

    ``start_index`` is the start whose failure surfaced the crash;
    ``lost`` lists every start being resubmitted (a broken executor
    loses all of its in-flight siblings, not just the crashed one).
    """

    start_index: int
    lost: Tuple[int, ...]
    attempt: int
    max_attempts: int
    error: str


# ---------------------------------------------------------------------------
# Label state: parent -> worker, per task
# ---------------------------------------------------------------------------


def snapshot_label_state(
    weak_distance: WeakDistance,
) -> Dict[str, FrozenSet[str]]:
    """Freeze the parent's runtime label sets for shipping."""
    return {
        name: frozenset(labels)
        for name, labels in weak_distance.label_sets.items()
    }


def sync_label_state(
    weak_distance: WeakDistance, state: Dict[str, FrozenSet[str]]
) -> None:
    """Make ``weak_distance``'s runtime label sets match ``state``.

    Mutates the existing set objects in place: the compiled runtime and
    any live interpreter context hold references to them.
    """
    for name, labels in state.items():
        current = weak_distance.label_sets.setdefault(name, set())
        current.clear()
        current.update(labels)


# ---------------------------------------------------------------------------
# Round identity
# ---------------------------------------------------------------------------


def round_key(
    weak_distance: WeakDistance,
    backend: MOBackend,
    starts: Sequence[Tuple[Tuple[float, ...], np.random.Generator]],
    max_evals_per_start: Optional[int],
    stop_at_zero: bool,
) -> Optional[str]:
    """The identity of a deterministic round's outcome, or ``None``
    when ``backend`` does not pickle.

    A round that no zero can race, that records no samples and that
    runs to completion has one outcome for these inputs, however it
    runs (serial ≡ lockstep ≡ pooled): W's memoized content digest
    (program, eval mode, executor settings), the label sets it reads,
    the backend's pickle (what a pool task ships), each start's point
    and generator state, and the per-start budget and zero rule.  Call
    it before :func:`run_multistart`, which consumes the generators.
    """
    try:
        backend_blob = canonical_pickle(backend)
    except (pickle.PicklingError, TypeError, AttributeError, ValueError):
        return None
    labels = sorted(
        (name, sorted(values)) for name, values in weak_distance.label_sets.items()
    )
    return digest_bytes(
        canonical_pickle(
            (
                weak_distance.digest,
                labels,
                backend_blob,
                [(tuple(start), rng.bit_generator.state) for start, rng in starts],
                max_evals_per_start,
                stop_at_zero,
            )
        )
    )


# ---------------------------------------------------------------------------
# One start, on every round path
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class StartTask:
    """One start of a round, run in-process or shipped to a worker."""

    index: int
    start: Tuple[float, ...]
    rng: np.random.Generator
    backend: MOBackend
    record_samples: bool = False
    max_evals: Optional[int] = None
    #: Stop this start as soon as it samples a zero (Section 4.4's
    #: termination rule).  Analyses that want *every* zero — boundary
    #: value analysis collects the whole BV set — turn this off.
    stop_at_zero: bool = True


@dataclasses.dataclass
class StartReport:
    """What one start of a round yields, on every round path."""

    index: int
    #: ``None`` when the start was cancelled before its first evaluation.
    result: Optional[MOResult]
    n_evals: int = 0
    samples: List[Sample] = dataclasses.field(default_factory=list)
    #: True when serving this start made a pool worker unpickle W (a
    #: worker-cache miss: the worker had not yet served this program).
    rebuilt: bool = False


def _objective(
    weak_distance: WeakDistance,
    task: StartTask,
    should_stop: Optional[Callable[[], bool]],
) -> Objective:
    """The objective of one start, built the same way on every path."""
    return Objective(
        weak_distance,
        n_dims=len(task.start),
        record_samples=task.record_samples,
        stop_at_zero=task.stop_at_zero,
        max_samples=task.max_evals,
        should_stop=should_stop,
    )


def run_task(
    weak_distance: WeakDistance,
    task: StartTask,
    should_stop: Optional[Callable[[], bool]] = None,
) -> StartReport:
    """Run one start against ``weak_distance`` (any execution context).

    Shared by the pool worker and the in-process serial loop, so both
    paths construct the objective identically — the heart of the
    serial == parallel determinism contract.  The report's ``result``
    is ``None`` when the start was cancelled before its first
    evaluation.
    """
    objective = _objective(weak_distance, task, should_stop)
    try:
        result = task.backend.minimize(objective, task.start, task.rng)
    except RuntimeError:
        if objective.n_evals or should_stop is None or not should_stop():
            raise  # a genuine backend failure, not a cancellation
        # Cancelled between the pre-check and the first evaluation.
        result = None
    return StartReport(task.index, result, objective.n_evals, objective.samples)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class MultiStartOutcome:
    """Merged result of one round's starts, however they ran."""

    #: Per-start MO results in start order (cancelled-unevaluated
    #: starts are absent).
    attempts: List[MOResult]
    n_evals: int
    #: Recorded sampling sequences, concatenated in start order.
    samples: List[Sample]
    #: Starts cancelled before their first evaluation (the race was
    #: already over, or the job was cancelled).
    n_cancelled: int = 0
    #: Crash-salvage cycles this round needed (lost starts resubmitted
    #: to a fresh executor; 0 = no worker ever crashed).
    n_crash_retries: int = 0
    #: True when a ``stop_event`` cancelled the round mid-flight: the
    #: outcome holds each start's progress up to where the flag landed
    #: (its next evaluation, or the next step of a lockstep round), and
    #: the starts that had not begun are absent — a *partial* round,
    #: still mergeable, see :func:`merge_reports`.
    interrupted: bool = False

    @property
    def best(self) -> Optional[MOResult]:
        """The winning attempt: minimal ``f_star``, earliest start on
        ties — the same representative a serial loop would pick."""
        if not self.attempts:
            return None
        return min(self.attempts, key=lambda r: r.f_star)


def pool_context() -> multiprocessing.context.BaseContext:
    """Fork when available (cheap, inherits imports); spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def merge_reports(
    reports: Sequence[StartReport],
    n_crash_retries: int = 0,
    interrupted: bool = False,
) -> MultiStartOutcome:
    """Fold per-start reports into one :class:`MultiStartOutcome`.

    Reports are merged in start order.  ``reports`` may cover only a
    subset of the round's starts — an early-cancelled, stopped or
    crash-salvaged round merges whatever ran, and the per-start
    determinism contract guarantees each merged report is
    byte-identical to its serial counterpart.
    """
    attempts: List[MOResult] = []
    samples: List[Sample] = []
    n_evals = 0
    n_cancelled = 0
    for report in sorted(reports, key=lambda report: report.index):
        n_evals += report.n_evals
        if report.result is None:
            n_cancelled += 1
        else:
            attempts.append(report.result)
        samples.extend(report.samples)
    return MultiStartOutcome(
        attempts=attempts,
        n_evals=n_evals,
        samples=samples,
        n_cancelled=n_cancelled,
        n_crash_retries=n_crash_retries,
        interrupted=interrupted,
    )


def _run_lockstep(
    weak_distance: WeakDistance,
    tasks: Sequence[StartTask],
    should_stop: Optional[Callable[[], bool]],
) -> List[StartReport]:
    """Every start of the round stepped together by one ask/tell driver
    (:func:`repro.mo.base.drive`): each step scores all live starts'
    points together, in one vectorized kernel call when the step is
    wide enough.  Per start, the objective is
    the one :func:`run_task` builds, so each start's report is the one
    a one-at-a-time run produces; a ``should_stop`` that fires
    mid-round ends every live start after the same step, with its
    progress so far."""
    if should_stop is not None and should_stop():
        return []
    searches = [
        (
            _objective(weak_distance, task, should_stop),
            task.backend.steps(task.start, task.rng),
        )
        for task in tasks
    ]
    drive(searches)
    return [
        StartReport(
            task.index,
            objective.result(task.backend.name),
            objective.n_evals,
            objective.samples,
        )
        for task, (objective, _) in zip(tasks, searches)
    ]


def _run_starts_serial(
    weak_distance: WeakDistance,
    tasks: Sequence[StartTask],
    early_cancel: bool,
    stop_event: Optional[threading.Event] = None,
) -> MultiStartOutcome:
    """In-process start loop with the same per-start semantics as the
    pool: one fresh :class:`Objective` per start, so a serial run and a
    parallel run with the same seed walk identical trajectories.

    ``early_cancel`` plays the role of the pool's racing cancellation:
    when set, a zero stops the remaining starts (Algorithm 2's serial
    loop); when clear, every start runs like the deterministic pool
    path, so attempts/eval counts/samples match it exactly.
    ``stop_event`` is the cooperative job-cancellation hook
    (:meth:`repro.api.session.JobHandle.cancel`); it never fires in an
    uncancelled run, so it cannot perturb determinism.

    A round that no zero can cut short, whose starts' backends all
    speak ask/tell, on a W with a vectorized kernel, runs its starts in
    lockstep (:func:`_run_lockstep`); every other round runs them one
    at a time.  A wider step buys nothing on the scalar tiers, and in a
    racing round it would spend evaluations on starts that the first
    zero cancels.
    """
    should_stop = None if stop_event is None else stop_event.is_set
    racing = early_cancel and any(task.stop_at_zero for task in tasks)
    if (
        tasks
        and not racing
        and all(task.backend.ask_tell for task in tasks)
        and getattr(weak_distance, "supports_batch", False)
    ):
        reports = _run_lockstep(weak_distance, tasks, should_stop)
    else:
        reports = []
        for task in tasks:
            if should_stop is not None and should_stop():
                break
            report = run_task(weak_distance, task, should_stop)
            reports.append(report)
            if (
                task.stop_at_zero
                and early_cancel
                and report.result is not None
                and report.result.stopped_at_zero
            ):
                break
    return merge_reports(
        reports, interrupted=stop_event is not None and stop_event.is_set()
    )


def run_multistart(
    weak_distance: WeakDistance,
    backend: MOBackend,
    starts: Sequence[Tuple[Tuple[float, ...], np.random.Generator]],
    record_samples: bool = False,
    max_evals_per_start: Optional[int] = None,
    stop_at_zero: bool = True,
    early_cancel: bool = True,
    pool=None,
    stop_event: Optional[threading.Event] = None,
    max_crash_retries: int = DEFAULT_CRASH_RETRIES,
    on_crash=None,
) -> MultiStartOutcome:
    """Run every ``(start, rng)`` pair through ``backend``.

    Without a ``pool`` the starts run inline — same per-start
    objectives, no processes.  ``pool`` fans them across a persistent
    :class:`repro.core.pool.WorkerPool`: its warm workers cache
    unpickled weak distances by content digest, so repeated rounds and
    jobs over the same program skip the unpickle/re-compile entirely.
    The backend and the weak distance must be picklable for the pooled
    path.

    ``stop_at_zero=False`` lets every start run to completion and keeps
    all zero-valued samples (boundary value analysis).  With
    ``early_cancel=False`` a zero still stops its *own* start but does
    not cancel the others: the merged outcome is then bit-identical to
    the serial outcome (same attempts, same representative), which is
    what :class:`repro.api.engine.Engine` runs by default; the racing
    default trades that exact reproducibility for wall-clock speed
    while preserving the verdict.

    ``stop_event`` (a :class:`threading.Event`) cancels the remaining
    work cooperatively — on the serial path the running start stops at
    its next evaluation (every start of a lockstep round after the
    current step) and no later start runs; on the pooled path mid-round
    through the pool's cancel slots.  A cancelled round returns a
    *partial* outcome (``interrupted=True``) holding each start's
    progress so far.

    ``max_crash_retries`` bounds the salvage cycles a round may spend
    on crashed workers: completed sibling reports are kept, the lost
    starts are resubmitted to a fresh executor, and — because each
    retried start re-ships the parent's untouched per-start generator
    — the healed round is byte-identical to a crash-free serial run.
    ``on_crash`` receives a :class:`CrashNotice` per salvage cycle.
    """
    tasks = [
        StartTask(
            index=i,
            start=tuple(start),
            rng=rng,
            backend=backend,
            record_samples=record_samples,
            max_evals=max_evals_per_start,
            stop_at_zero=stop_at_zero,
        )
        for i, (start, rng) in enumerate(starts)
    ]
    if not tasks or pool is None:
        return _run_starts_serial(weak_distance, tasks, early_cancel, stop_event)
    return pool.run_round(
        weak_distance,
        tasks,
        race=bool(stop_at_zero and early_cancel),
        stop_event=stop_event,
        max_crash_retries=max_crash_retries,
        on_crash=on_crash,
    )
