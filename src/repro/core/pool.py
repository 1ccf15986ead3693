"""The worker pool: the one executor behind every parallel round.

:func:`repro.core.parallel.run_multistart` fans a round's starts across
a :class:`WorkerPool` — a persistent one owned by
:class:`repro.api.Session` (or shared via ``EngineConfig.pool``), or a
transient one it builds for the round when it is given ``n_workers >
1`` and no pool.  A pool owns one
:class:`~concurrent.futures.ProcessPoolExecutor` for its lifetime, so
a long-lived pool amortizes process startup and the worker-side
unpickle and compile of W across rounds and jobs:

* **Warm workers.**  Processes are spawned once (lazily, on the first
  round) and reused by every subsequent round and job, no matter which
  analysis or program they serve.

* **Program cache by content digest.**  A
  :class:`~repro.core.weak_distance.WeakDistance` pickles without its
  label sets or compiled code, so the parent pickles W once per live
  object and keys the blob by W's identity-blind, memoized
  :func:`~repro.util.digest.content_digest` (the scan store's recipe):
  equal programs share a key however their objects are aliased.  Every
  task carries the blob; workers keep a small LRU of unpickled weak
  distances keyed by the digest and unpickle (and re-compile) only
  when the *program* changes — a second job over the same program, or
  the twentieth round of Algorithm 3, reuses the compiled W directly.
  Runtime label state (Algorithm 3's ``L``, coverage's ``B``) travels
  with each task and is synced into the cached W in place; rounds
  never change it, so nothing travels back.

* **Cancel slots.**  A pool runs many rounds — from many concurrent
  jobs — over one set of workers, so it allocates each round a *slot*
  in a shared flag array.  Workers poll their
  task's slot per evaluation; the first racing zero sets it, and
  :meth:`repro.api.session.JobHandle.cancel` sets it from the parent to
  stop a round mid-flight.  A round that could not get a slot (all
  :data:`CANCEL_SLOTS` taken) still observes its ``stop_event``
  parent-side: queued starts are withdrawn and running ones are merely
  waited out.  Slots are always cleared on release, even when the
  round aborts with :class:`WorkerCrashError` — the pool stays usable
  for the next job.

* **Self-healing rounds.**  A worker crash — a raising backend or a
  process death that breaks the whole executor — does not forfeit
  the round.  :meth:`WorkerPool.run_round` keeps every completed
  sibling report, retires the broken executor, and resubmits only the
  lost starts to a fresh one (bounded per round by
  ``max_crash_retries``).  Each resubmitted start re-ships the
  parent's untouched per-start generator, so a healed round is
  byte-identical to a crash-free serial run.

The pool is thread-safe: concurrent jobs submit rounds from their own
driver threads and share the worker budget.  When a broken executor
takes down the in-flight rounds of *several* jobs at once, each round
salvages independently — the first to notice retires the executor and
the rest resubmit to its replacement.
"""

from __future__ import annotations

import pickle
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, CancelledError, wait
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.parallel import (
    DEFAULT_CRASH_RETRIES,
    STOP_POLL_SECONDS,
    CrashNotice,
    MultiStartOutcome,
    StartReport,
    StartTask,
    WorkerCrashError,
    merge_reports,
    pool_context,
    run_task,
    snapshot_label_state,
    sync_label_state,
    watch_parent,
)
from repro.core.weak_distance import WeakDistance

#: Concurrent rounds that can hold a cancel slot; rounds beyond this
#: run without mid-round cancellation (still cancellable between
#: rounds) instead of blocking.
CANCEL_SLOTS = 32

#: Unpickled weak distances each worker keeps (LRU by program digest).
WORKER_CACHE_SIZE = 8

# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _PoolTask:
    """One start plus the context a warm worker needs to serve it:
    the pickled W (``blob``, unpickled only on a worker-cache miss),
    its ``digest``, and the parent's label sets for this round."""

    __slots__ = ("digest", "blob", "label_state", "slot", "race", "task")

    def __init__(
        self,
        digest: str,
        blob: bytes,
        label_state: Dict[str, FrozenSet[str]],
        slot: Optional[int],
        race: bool,
        task: StartTask,
    ) -> None:
        self.digest = digest
        self.blob = blob
        self.label_state = label_state
        self.slot = slot
        self.race = race
        self.task = task


class _SlotPoll:
    """Picks one cancel-slot flag out of the shared array (worker side)."""

    __slots__ = ("flags", "slot")

    def __init__(self, flags, slot: int) -> None:
        self.flags = flags
        self.slot = slot

    def __call__(self) -> bool:
        return self.flags[self.slot] != 0


_POOL_STATE: dict = {}


def _init_pool_worker(cancel_flags) -> None:
    watch_parent()
    _POOL_STATE["flags"] = cancel_flags
    _POOL_STATE["cache"] = OrderedDict()


def _cached_weak_distance(ptask: _PoolTask) -> Tuple[WeakDistance, bool]:
    """The worker's W for this task's program (LRU by digest), and
    whether it had to be unpickled."""
    cache: OrderedDict = _POOL_STATE["cache"]
    weak_distance = cache.get(ptask.digest)
    if weak_distance is not None:
        cache.move_to_end(ptask.digest)
        return weak_distance, False
    weak_distance = cache[ptask.digest] = pickle.loads(ptask.blob)
    while len(cache) > WORKER_CACHE_SIZE:
        cache.popitem(last=False)
    return weak_distance, True


def _run_pool_start(ptask: _PoolTask) -> StartReport:
    task = ptask.task
    flags = _POOL_STATE["flags"]
    slot = ptask.slot
    should_stop = None if slot is None else _SlotPoll(flags, slot)
    if should_stop is not None and should_stop():
        # The round is over (a zero landed, or the job was cancelled):
        # leave the cache alone, the start never runs.
        return StartReport(task.index, None)
    weak_distance, rebuilt = _cached_weak_distance(ptask)
    sync_label_state(weak_distance, ptask.label_state)
    report = run_task(weak_distance, task, should_stop)
    report.rebuilt = rebuilt
    result = report.result
    if (
        result is not None
        and result.stopped_at_zero
        and task.stop_at_zero
        and ptask.race
        and slot is not None
    ):
        flags[slot] = 1
    return report


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class WorkerPool:
    """A long-lived process pool shared by rounds, jobs and sessions.

    Use as a context manager, or call :meth:`close` when done::

        with WorkerPool(4) as pool:
            outcome = run_multistart(w, backend, starts, 0, pool=pool)

    Most callers never construct one directly —
    :class:`repro.api.session.Session` owns a pool for its lifetime and
    :class:`repro.api.engine.EngineConfig.pool` lets several engines or
    sessions share one.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self._ctx = pool_context()
        self._lock = threading.Lock()
        self._flags = self._ctx.Array("b", CANCEL_SLOTS, lock=False)
        self._free_slots = set(range(CANCEL_SLOTS))
        self._executor: Optional[ProcessPoolExecutor] = None
        self._blobs: "weakref.WeakKeyDictionary[WeakDistance, Tuple[str, bytes]]"
        self._blobs = weakref.WeakKeyDictionary()
        self._closed = False
        #: Rounds executed over the pool's lifetime.
        self.n_rounds = 0
        #: Worker-side unpickles of W observed (cache misses; at most
        #: ``n_workers`` per distinct program).
        self.n_rebuilds = 0
        #: Crash-salvage cycles performed (lost starts resubmitted to a
        #: fresh executor after a worker crash).
        self.n_crash_retries = 0
        #: Broken executors retired over the pool's lifetime.
        self.n_broken_executors = 0
        #: Distinct program digests shipped so far.
        self._digests: set = set()
        # Spawn the workers now, from the constructing thread.  Session
        # drivers call run_round from a thread pool, and forking a
        # multi-threaded parent there can inherit locks mid-operation;
        # construction normally happens on the main thread, where the
        # fork is safe.  (Executor recreation after a hard break stays
        # lazy — a rare path that accepts the hazard.)
        self._ensure_executor()

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the executor down; the pool cannot be reused."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.n_workers,
                    mp_context=self._ctx,
                    initializer=_init_pool_worker,
                    initargs=(self._flags,),
                )
            return self._executor

    def _retire_broken_executor(
        self, broken: Optional[ProcessPoolExecutor] = None
    ) -> None:
        """Drop a broken executor so the next round spawns a fresh one.

        ``broken`` guards concurrent salvage: several rounds sharing
        the executor all observe the same break, and only the first
        may retire it — the rest would otherwise tear down the healthy
        replacement their siblings already resubmitted to.
        """
        with self._lock:
            if broken is not None and self._executor is not broken:
                return
            executor, self._executor = self._executor, None
            if executor is not None:
                self.n_broken_executors += 1
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    # -- program blobs -----------------------------------------------------

    def _program_blob(self, weak_distance: WeakDistance) -> Tuple[str, bytes]:
        """The pickled W (label-free, see
        :meth:`~repro.core.weak_distance.WeakDistance.__reduce__`) and
        its content digest.

        Cached per live ``WeakDistance`` (weakly, so finished jobs do
        not pin programs in parent memory).  The digest is W's memoized
        :attr:`~repro.core.weak_distance.WeakDistance.digest`, not a
        hash of ``blob``: two distinct objects instrumenting equal
        programs share one digest — the worker-side cache key — even
        when their blobs differ in how pickle's memo shared their
        objects.
        """
        with self._lock:
            cached = self._blobs.get(weak_distance)
        if cached is not None:
            return cached
        blob = pickle.dumps(weak_distance, protocol=pickle.HIGHEST_PROTOCOL)
        digest = weak_distance.digest
        with self._lock:
            self._blobs[weak_distance] = (digest, blob)
            self._digests.add(digest)
        return digest, blob

    @property
    def n_programs(self) -> int:
        """Distinct programs shipped over the pool's lifetime."""
        return len(self._digests)

    # -- cancel slots ------------------------------------------------------

    def _acquire_slot(self) -> Optional[int]:
        with self._lock:
            if not self._free_slots:
                return None
            slot = self._free_slots.pop()
        self._flags[slot] = 0
        return slot

    def _release_slot(self, slot: Optional[int]) -> None:
        if slot is None:
            return
        # A crashed or cancelled round must never leave its flag set
        # for the next round that takes the slot.
        self._flags[slot] = 0
        with self._lock:
            self._free_slots.add(slot)

    # -- rounds ------------------------------------------------------------

    def run_round(
        self,
        weak_distance: WeakDistance,
        tasks: Sequence[StartTask],
        race: bool = False,
        stop_event: Optional[threading.Event] = None,
        max_crash_retries: int = DEFAULT_CRASH_RETRIES,
        on_crash=None,
    ) -> MultiStartOutcome:
        """Fan one round's ``tasks`` across the warm workers.

        ``race=True`` lets the first zero cancel the round's remaining
        starts (the racing mode); ``stop_event`` cancels the round from
        the parent mid-flight (job cancellation) and marks the outcome
        ``interrupted`` — the completed starts are still merged, and a
        round whose event is set before it starts dispatches nothing.
        The reports are folded by
        :func:`repro.core.parallel.merge_reports`.  A crashing start
        (raising backend or a process death that breaks the executor)
        costs only the unfinished starts, which are resubmitted to a
        fresh executor for up to ``max_crash_retries`` salvage cycles
        (each reported to ``on_crash`` as a
        :class:`~repro.core.parallel.CrashNotice`); only exhaustion
        aborts the round with :class:`WorkerCrashError`, and even then
        the pool stays serviceable.
        """
        if not tasks or (stop_event is not None and stop_event.is_set()):
            return merge_reports([], interrupted=bool(tasks))
        digest, blob = self._program_blob(weak_distance)
        label_state = snapshot_label_state(weak_distance)
        slot = self._acquire_slot() if (race or stop_event is not None) else None
        reports: List[StartReport] = []
        pending_tasks: Dict[int, StartTask] = {task.index: task for task in tasks}
        all_futures: List[object] = []
        n_retries = 0
        interrupted = False
        try:
            while pending_tasks:
                executor = self._ensure_executor()
                crash: Optional[BaseException] = None
                crash_index = 0
                broken = False
                futures: Dict[object, int] = {}
                for task in sorted(pending_tasks.values(), key=lambda t: t.index):
                    ptask = _PoolTask(digest, blob, label_state, slot, race, task)
                    try:
                        future = executor.submit(_run_pool_start, ptask)
                    except RuntimeError as exc:
                        # The executor broke — or a sibling round's
                        # salvage retired it — between _ensure and
                        # submit (BrokenProcessPool is a RuntimeError).
                        # Treat it as this cycle's crash so the retry
                        # loop resubmits on a replacement instead of
                        # failing the round.
                        crash, crash_index = exc, task.index
                        broken = True
                        break
                    futures[future] = task.index
                all_futures.extend(futures)
                pending = set(futures)
                while pending:
                    done, pending = wait(
                        pending,
                        timeout=STOP_POLL_SECONDS if stop_event is not None else None,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        index = futures[future]
                        try:
                            reports.append(future.result())
                            pending_tasks.pop(index, None)
                        except CancelledError:
                            # A future this round withdrew after its
                            # stop flag landed: the start never ran
                            # and must not be resubmitted.
                            pending_tasks.pop(index, None)
                        except BrokenProcessPool as exc:
                            broken = True
                            if crash is None:
                                crash, crash_index = exc, index
                        except Exception as exc:
                            if crash is None:
                                crash, crash_index = exc, index
                    if (
                        stop_event is not None
                        and not interrupted
                        and stop_event.is_set()
                    ):
                        interrupted = True
                        if slot is not None:
                            self._flags[slot] = 1
                        else:
                            # Slotless round (cancel slots exhausted):
                            # the workers cannot see a flag, so stop
                            # dispatching instead — queued starts are
                            # withdrawn, running ones are waited out
                            # and still harvested.
                            for future in futures:
                                future.cancel()
                if broken:
                    self._retire_broken_executor(executor)
                if crash is None or not pending_tasks:
                    break
                if interrupted:
                    # The job is being cancelled anyway: salvage what
                    # completed instead of spending retries.
                    break
                if race and slot is not None and self._flags[slot]:
                    # The race is already over (a zero landed): lost
                    # starts would cancel on arrival, so there is
                    # nothing worth resubmitting.
                    break
                if n_retries >= max_crash_retries:
                    raise WorkerCrashError(crash_index, crash) from crash
                n_retries += 1
                with self._lock:
                    self.n_crash_retries += 1
                if on_crash is not None:
                    on_crash(
                        CrashNotice(
                            start_index=crash_index,
                            lost=tuple(sorted(pending_tasks)),
                            attempt=n_retries,
                            max_attempts=max_crash_retries,
                            error=repr(crash),
                        )
                    )
        except BaseException:
            if slot is not None:
                self._flags[slot] = 1
            for future in all_futures:
                future.cancel()
            raise
        finally:
            # Wait out any starts still running so no worker can touch
            # the slot after it is recycled, then release it cleared.
            wait(all_futures)
            self._release_slot(slot)
            with self._lock:
                self.n_rounds += 1
                self.n_rebuilds += sum(1 for r in reports if r.rebuilt)
        return merge_reports(reports, n_retries, interrupted)

    def stats(self) -> Dict[str, int]:
        """Lifetime counters (rounds served, cache and crash behavior)."""
        return {
            "n_workers": self.n_workers,
            "rounds": self.n_rounds,
            "programs": self.n_programs,
            "rebuilds": self.n_rebuilds,
            "crash_retries": self.n_crash_retries,
            "broken_executors": self.n_broken_executors,
        }
