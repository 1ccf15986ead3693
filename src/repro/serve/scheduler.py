"""Multi-tenant job scheduling over one shared :class:`Session`.

The server accepts jobs from many API keys but owns exactly one warm
worker pool; the scheduler is the fairness layer in between.  Each
tenant (API key) gets its own FIFO queue, dispatch rotates round-robin
across tenants with queued work, and a per-tenant quota caps how many
of a tenant's jobs may *run* concurrently — so one tenant queueing a
thousand campaigns delays its own backlog, not everyone else's, while
the warm pool (and its compiled-kernel cache) stays shared.  The
session's round-outcome cache does not: each job runs with its tenant
as its cache scope, so a tenant is served only rounds its own jobs ran.

Lifecycle of one job::

    queued --start--> running --+--> done       (report)
                                +--> cancelled  (salvaged partial report)
                                +--> failed     (error string)

Every transition is journaled (:mod:`repro.serve.checkpoint`), every
completed round is checkpointed through ``Session.submit``'s
``checkpoint=`` hook, and every session event lands in the job's
:class:`~repro.serve.stream.EventLog` for SSE streaming.

Completion is observed via the job's terminal
:class:`~repro.api.events.JobFinished` event.  That event fires *from
the driver thread before* ``JobHandle`` settles, so the event callback
must not block on ``handle.partial_result()`` itself — it hands the
job to a single finalizer thread, which waits for the handle, renders
the report, journals the terminal record, and pumps the queues for the
freed slot.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from queue import Queue
from typing import Any, Deque, Dict, List, Optional, Sequence

from repro.api.events import JobFinished, SessionEvent
from repro.api.session import JobHandle, Session
from repro.core.batch import job_request
from repro.serve.checkpoint import CheckpointJournal
from repro.serve.stream import DEFAULT_RING_CAPACITY, EventLog
from repro.serve.wire import parse_job_payload, report_to_dict

#: Default per-tenant cap on concurrently *running* jobs.
DEFAULT_QUOTA = 2

#: Job states (wire values).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
CANCELLED = "cancelled"
FAILED = "failed"

_TERMINAL = frozenset((DONE, CANCELLED, FAILED))


@dataclasses.dataclass
class ServerJob:
    """One submitted job, as the scheduler tracks it."""

    job_id: str
    tenant: str
    payload: Dict[str, Any]
    request: Any
    events: EventLog
    state: str = QUEUED
    handle: Optional[JobHandle] = None
    report: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    #: Checkpointed outcomes replayed into this job at submit time
    #: (``repro serve --resume``).
    resume_rounds: Sequence[Any] = ()
    n_resumed_rounds: int = 0
    #: Rounds journaled so far (includes the resumed prefix — the
    #: journal already holds those records).
    n_checkpointed_rounds: int = 0
    #: Set once ``Session.submit`` has returned, so ``handle`` is final.
    #: A job with nothing left to run (every round resumed) can emit
    #: ``JobFinished`` before that.
    submitted: threading.Event = dataclasses.field(default_factory=threading.Event)

    @property
    def settled(self) -> bool:
        return self.state in _TERMINAL


class Scheduler:
    """Fair-share dispatcher between tenant queues and one session."""

    def __init__(
        self,
        session: Session,
        quota: int = DEFAULT_QUOTA,
        journal: Optional[CheckpointJournal] = None,
        max_active: Optional[int] = None,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
    ) -> None:
        self.session = session
        self.quota = max(1, quota)
        self.journal = journal
        # Total running-job cap: the session's own driver-thread cap
        # unless the server narrows it.
        if max_active is None:
            max_active = session._max_parallel_jobs
        self.max_active = max(1, max_active)
        self.ring_capacity = ring_capacity
        self._lock = threading.Lock()
        self._jobs: Dict[str, ServerJob] = {}
        #: tenant -> FIFO of queued jobs.
        self._queues: Dict[str, Deque[ServerJob]] = {}
        #: Round-robin rotation order over tenants with queued work.
        self._rotation: Deque[str] = deque()
        self._running: Dict[str, int] = {}
        self._n_running = 0
        self._next_id = 0
        self._closed = False
        self._finalize: "Queue[Optional[ServerJob]]" = Queue()
        self._finalizer = threading.Thread(
            target=self._finalize_loop,
            name="repro-serve-finalizer",
            daemon=True,
        )
        self._finalizer.start()

    # -- submission --------------------------------------------------------

    def submit(
        self,
        tenant: str,
        payload: Any,
        job_id: Optional[str] = None,
        resume_rounds: Sequence[Any] = (),
        record: bool = True,
    ) -> ServerJob:
        """Validate, journal, enqueue; returns the tracked job.

        Raises :class:`~repro.serve.wire.WireError` on a bad payload —
        nothing is journaled or enqueued for a rejected submission.
        ``job_id``/``resume_rounds``/``record=False`` are the resume
        path: re-registering a journaled job under its original id
        with its checkpointed rounds, without re-journaling it.
        """
        normalized, batch_job = parse_job_payload(payload)
        request = job_request(batch_job)
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            if job_id is None:
                job_id = f"j{self._next_id}"
                self._next_id += 1
            elif job_id in self._jobs:
                raise ValueError(f"duplicate job id {job_id!r}")
            job = ServerJob(
                job_id=job_id,
                tenant=tenant,
                payload=normalized,
                request=request,
                events=EventLog(self.ring_capacity),
                created=time.time(),
                resume_rounds=tuple(resume_rounds),
                n_resumed_rounds=len(resume_rounds),
                n_checkpointed_rounds=len(resume_rounds),
            )
            self._jobs[job_id] = job
            queue = self._queues.setdefault(tenant, deque())
            queue.append(job)
            if tenant not in self._rotation:
                self._rotation.append(tenant)
        if record and self.journal is not None:
            self.journal.record_job(job_id, tenant, normalized)
        self._pump()
        return job

    def restore_settled(
        self,
        job_id: str,
        tenant: str,
        payload: Dict[str, Any],
        state: str,
        report: Optional[Dict[str, Any]],
        error: Optional[str],
    ) -> ServerJob:
        """Re-register a journaled job that already settled.

        Resume keeps finished campaigns queryable (``GET /v1/jobs``)
        across restarts without re-running anything; their event logs
        are gone (they lived in server memory), so the restored log is
        closed and empty.
        """
        events = EventLog(1)
        events.close()
        job = ServerJob(
            job_id=job_id,
            tenant=tenant,
            payload=payload,
            request=None,
            events=events,
            state=state if state in _TERMINAL else DONE,
            report=report,
            error=error,
        )
        with self._lock:
            self._jobs[job_id] = job
        return job

    def claim_job_id(self, job_id: str) -> None:
        """Keep fresh ids above a restored job's numeric id."""
        if job_id.startswith("j") and job_id[1:].isdigit():
            with self._lock:
                self._next_id = max(self._next_id, int(job_id[1:]) + 1)

    # -- queries -----------------------------------------------------------

    def get(self, job_id: str, tenant: Optional[str] = None) -> Optional[ServerJob]:
        """The job, or None when unknown *or owned by another tenant*
        (tenant isolation surfaces as 404, not 403 — a key must not be
        able to probe which ids exist)."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            return None
        if tenant is not None and job.tenant != tenant:
            return None
        return job

    def jobs(self, tenant: Optional[str] = None) -> List[ServerJob]:
        with self._lock:
            jobs = list(self._jobs.values())
        if tenant is not None:
            jobs = [job for job in jobs if job.tenant == tenant]
        return jobs

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "jobs": len(self._jobs),
                "running": self._n_running,
                "queued": sum(len(q) for q in self._queues.values()),
                "tenants": len(self._queues),
            }

    # -- cancellation ------------------------------------------------------

    def cancel(
        self,
        job_id: str,
        tenant: Optional[str] = None,
        timeout: Optional[float] = 60.0,
    ) -> Optional[ServerJob]:
        """Cancel a job; blocks until it settles (lossless salvage).

        A queued job is dropped from its tenant's queue and settles
        immediately (nothing to salvage); a running one gets
        ``JobHandle.cancel()`` and settles through the normal
        finalization path with whatever partial report the driver
        salvaged.  Cancelling a settled job is a no-op.  Returns None
        for unknown/foreign jobs.
        """
        job = self.get(job_id, tenant)
        if job is None:
            return None
        dropped = False
        with self._lock:
            if job.state == QUEUED:
                queue = self._queues.get(job.tenant)
                if queue is not None and job in queue:
                    queue.remove(job)
                dropped = True
            elif job.state == RUNNING and job.handle is not None:
                job.handle.cancel()
        if dropped:
            # Dropped straight from the queue: close out here (the
            # finalizer only sees jobs that reached the session).
            self._settle(job, CANCELLED)
        # Running (or racing completion): the driver emits JobFinished
        # and the finalizer settles it; wait for that.  Re-deliver the
        # cancel each lap — submit() may still be assigning the handle
        # when the first attempt above found it None.
        deadline = None if timeout is None else time.monotonic() + timeout
        while not job.settled:
            if job.handle is not None:
                job.handle.cancel()
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} did not settle")
            time.sleep(0.02)
        return job

    # -- dispatch ----------------------------------------------------------

    def _pump(self) -> None:
        """Start queued jobs while slots and quotas allow (any thread)."""
        while True:
            with self._lock:
                job = self._pick()
                if job is None:
                    return
                job.state = RUNNING
                job.started = time.time()
                self._n_running += 1
                self._running[job.tenant] = self._running.get(job.tenant, 0) + 1
            self._start(job)

    def _pick(self) -> Optional[ServerJob]:
        """Next runnable job, round-robin across tenants (lock held)."""
        if self._closed or self._n_running >= self.max_active:
            return None
        for _ in range(len(self._rotation)):
            tenant = self._rotation[0]
            self._rotation.rotate(-1)
            queue = self._queues.get(tenant)
            if not queue:
                # Tenant drained; drop it from the rotation (it was
                # rotated to the back, so pop from the right).
                self._rotation.remove(tenant)
                continue
            if self._running.get(tenant, 0) >= self.quota:
                continue
            return queue.popleft()
        return None

    def _start(self, job: ServerJob) -> None:
        request = job.request

        def on_event(event: SessionEvent) -> None:
            job.events.append(event)
            if isinstance(event, JobFinished):
                # Fires before JobHandle settles — finalize elsewhere.
                self._finalize.put(job)

        def checkpoint(round_index: int, outcome: Any) -> None:
            if self.journal is not None:
                self.journal.record_round(job.job_id, round_index, outcome)
            job.n_checkpointed_rounds = round_index + 1

        try:
            job.handle = self.session.submit(
                request.analysis,
                request.target,
                spec=request.spec,
                config=request.config,
                on_event=on_event,
                checkpoint=checkpoint,
                resume_rounds=job.resume_rounds or None,
                cache_scope=job.tenant,
                **request.options,
            )
        except BaseException as exc:  # session closed, bad state
            self._settle(job, FAILED, error=f"{type(exc).__name__}: {exc}")
        finally:
            job.submitted.set()

    # -- finalization ------------------------------------------------------

    def _finalize_loop(self) -> None:
        while True:
            job = self._finalize.get()
            if job is None:
                return
            try:
                self._finalize_job(job)
            except Exception:
                pass  # the finalizer thread must never die
            self._pump()

    def _finalize_job(self, job: ServerJob) -> None:
        job.submitted.wait()
        report = None
        state = DONE
        error = None
        try:
            # JobFinished was emitted, so the handle settles promptly;
            # the timeout only guards a wedged driver thread.
            report = job.handle.partial_result(timeout=60.0)
        except Exception as exc:
            state = FAILED
            error = f"{type(exc).__name__}: {exc}"
        if state is DONE and job.handle.cancelled():
            state = CANCELLED
        self._settle(
            job,
            state,
            report=report_to_dict(report) if report is not None else None,
            error=error,
        )

    def _settle(
        self,
        job: ServerJob,
        state: str,
        report: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        """Close a job out.  The terminal ``state`` is what readers
        (``settled``, the job endpoint, ``ServeClient.wait``) check, so
        it is set last: a settled job always has its report, a closed
        event log and its journal ``done`` record.  ``finished`` marks
        that settling has begun, so a job settles once."""
        with self._lock:
            if job.settled or job.finished is not None:
                return
            job.report = report
            job.error = error
            job.finished = time.time()
            if job.started is not None:
                self._n_running -= 1
                left = self._running.get(job.tenant, 1) - 1
                if left > 0:
                    self._running[job.tenant] = left
                else:
                    self._running.pop(job.tenant, None)
        try:
            job.events.close()
            if self.journal is not None:
                self.journal.record_done(job.job_id, state, report, error)
        finally:
            job.state = state

    # -- shutdown ----------------------------------------------------------

    def close(self, cancel_running: bool = True) -> None:
        """Stop dispatching; optionally cancel in-flight jobs."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            queued = [job for queue in self._queues.values() for job in queue]
            for queue in self._queues.values():
                queue.clear()
            self._rotation.clear()
            running = [job for job in self._jobs.values() if job.state == RUNNING]
        for job in queued:
            job.state = CANCELLED
            job.finished = time.time()
            job.events.close()
        if cancel_running:
            for job in running:
                if job.handle is not None:
                    job.handle.cancel()
            for job in running:
                deadline = time.monotonic() + 60.0
                while not job.settled and time.monotonic() < deadline:
                    time.sleep(0.02)
        self._finalize.put(None)
        self._finalizer.join(timeout=10.0)
        for job in self.jobs():
            job.events.close()
