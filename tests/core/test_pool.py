"""The persistent worker-pool service (repro.core.pool)."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analyses.boundary import multiplicative_spec
from repro.analyses.overflow import overflow_spec
from repro.core import WorkerPool
from repro.core.parallel import run_multistart
from repro.core.pool import CANCEL_SLOTS
from repro.core.weak_distance import WeakDistance
from repro.fpir.builder import FunctionBuilder, eq, num, v
from repro.fpir.instrument import instrument
from repro.fpir.program import Program
from repro.mo.base import MOBackend
from repro.mo.random_search import RandomSearchBackend
from repro.mo.starts import uniform_sampler
from repro.testing import KillWorkerOnceBackend
from repro.util.rng import derive_round_rngs


def _equality_program(target: float = 7.0) -> Program:
    fb = FunctionBuilder("prog", params=["x"])
    with fb.if_(eq(v("x"), num(target))):
        fb.let("reached", num(1.0))
    fb.ret(num(0.0))
    return Program([fb.build()], entry="prog")


def _weak_distance(target: float = 7.0) -> WeakDistance:
    return WeakDistance(
        instrument(_equality_program(target), multiplicative_spec())
    )


def _starts(seed: int, n: int, low: float = 10.0, high: float = 20.0):
    sampler = uniform_sampler(low, high)
    return [(sampler(rng, 1), rng) for rng in derive_round_rngs(seed, 0, n)]


def _backend(n_samples: int = 50):
    return RandomSearchBackend(
        n_samples=n_samples, sampler=uniform_sampler(10.0, 20.0)
    )


class CrashBackend(MOBackend):
    name = "crash"

    def minimize(self, objective, start, rng):
        raise ValueError("backend exploded")


class MarkStartBackend(MOBackend):
    """Creates ``marker`` when a start begins, then runs ``inner``."""

    name = "mark-start"

    def __init__(self, marker, inner):
        self.marker = str(marker)
        self.inner = inner

    def minimize(self, objective, start, rng):
        open(self.marker, "a").close()
        return self.inner.minimize(objective, start, rng)


def _set_when_exists(path, event):
    """Set ``event`` from a helper thread once ``path`` exists."""

    def watch():
        while not path.exists():
            time.sleep(0.001)
        event.set()

    thread = threading.Thread(target=watch, daemon=True)
    thread.start()
    return thread


def _kill_once(marker):
    """Shared chaos backend wired to this suite's sampler range."""
    return KillWorkerOnceBackend(marker, inner=_backend(40))


class TestPooledRounds:
    def test_pooled_round_matches_serial(self):
        serial_wd, pooled_wd = _weak_distance(), _weak_distance()
        serial = run_multistart(
            serial_wd, _backend(), _starts(5, 3),
            early_cancel=False,
        )
        with WorkerPool(2) as pool:
            pooled = run_multistart(
                pooled_wd, _backend(), _starts(5, 3),
                early_cancel=False, pool=pool,
            )
        assert [r.f_star for r in serial.attempts] == [
            r.f_star for r in pooled.attempts
        ]
        assert [r.x_star for r in serial.attempts] == [
            r.x_star for r in pooled.attempts
        ]
        assert serial.n_evals == pooled.n_evals

    def test_payload_cache_across_rounds(self):
        weak_distance = _weak_distance()
        with WorkerPool(1) as pool:
            for round_seed in (1, 2, 3):
                run_multistart(
                    weak_distance, _backend(), _starts(round_seed, 2),
                    pool=pool,
                )
            stats = pool.stats()
        # One worker, one program: a single rebuild serves every round.
        assert stats["rounds"] == 3
        assert stats["programs"] == 1
        assert stats["rebuilds"] == 1

    def test_distinct_programs_rebuild_separately(self):
        with WorkerPool(1) as pool:
            for target in (7.0, 9.0):
                run_multistart(
                    _weak_distance(target), _backend(),
                    _starts(4, 2), pool=pool,
                )
            assert pool.n_programs == 2
            assert pool.n_rebuilds == 2

    def test_equal_programs_share_one_digest(self):
        # Two *distinct* WeakDistance objects over the same program
        # content hash to the same payload — the cross-job cache hit.
        with WorkerPool(1) as pool:
            for _ in range(2):
                run_multistart(
                    _weak_distance(), _backend(), _starts(4, 2),
                    pool=pool,
                )
            assert pool.n_programs == 1
            assert pool.n_rebuilds == 1

    def test_blob_dropped_after_warmup_with_miss_recovery(self):
        """Every task carries the program, so a worker that missed the
        warm-up round (a cold worker) serves a warm program: it
        unpickles W itself instead of failing the round."""
        weak_distance = _weak_distance()
        with WorkerPool(2) as pool:
            # Warm-up round touches (at most) one of the two workers.
            run_multistart(
                weak_distance, _backend(), _starts(1, 1),
                pool=pool,
            )
            assert pool.n_rebuilds == 1
            outcome = run_multistart(
                weak_distance, _backend(), _starts(2, 4),
                pool=pool,
            )
        assert len(outcome.attempts) == 4
        assert outcome.n_evals == 4 * 50
        assert pool.n_rebuilds <= 2

    def test_label_state_ships_per_task(self):
        # The payload digest ignores label state; the shipped per-task
        # snapshot still reaches the worker's W (suppressed probes).
        program_wd = WeakDistance(
            instrument(_equality_program(), overflow_spec())
        )
        labels = [
            site.label for site in program_wd.instrumented.index.fp_ops
        ]
        with WorkerPool(1) as pool:
            run_multistart(
                program_wd, _backend(), _starts(4, 2),
                pool=pool,
            )
            program_wd.label_sets["L"].update(labels)
            outcome = run_multistart(
                program_wd, _backend(), _starts(4, 2),
                pool=pool,
            )
            # Same digest both rounds: the label growth must not force
            # a rebuild...
            assert pool.n_programs == 1
            assert pool.n_rebuilds == 1
        # ...yet with every probe suppressed W stays at w_init == 1.
        assert all(r.f_star == 1.0 for r in outcome.attempts)


class TestCrashRecovery:
    def test_crash_surfaced_and_pool_stays_usable(self):
        from repro.core import WorkerCrashError

        weak_distance = _weak_distance()
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerCrashError, match="backend exploded"):
                run_multistart(
                    weak_distance, CrashBackend(), _starts(1, 3),
                    pool=pool,
                )
            # Every cancel slot was released cleared by the teardown.
            assert len(pool._free_slots) == CANCEL_SLOTS
            assert all(flag == 0 for flag in pool._flags)
            # The same pool serves the next round.
            outcome = run_multistart(
                weak_distance, _backend(), _starts(5, 3),
                pool=pool,
            )
            assert len(outcome.attempts) == 3

    def test_closed_pool_rejects_rounds(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            run_multistart(
                _weak_distance(), _backend(), _starts(5, 2),
                pool=pool,
            )


class TestChaosCrashRecovery:
    """os.kill a live worker mid-round: the round must self-heal."""

    def test_chaos_killed_worker_round_heals_with_serial_parity(
        self, tmp_path
    ):
        backend = _kill_once(tmp_path / "killed")
        serial = run_multistart(
            _weak_distance(), backend, _starts(5, 6),
            early_cancel=False,
        )
        with WorkerPool(2) as pool:
            healed = run_multistart(
                _weak_distance(), backend, _starts(5, 6),
                early_cancel=False, pool=pool,
            )
            stats = pool.stats()
        assert (tmp_path / "killed").exists()  # a worker really died
        assert stats["crash_retries"] >= 1
        assert stats["broken_executors"] >= 1
        assert healed.n_crash_retries >= 1
        # Byte-identical salvage: completed siblings were kept and the
        # lost starts replayed their shipped generators, so the healed
        # round equals the crash-free serial run exactly.
        assert [r.f_star for r in serial.attempts] == [
            r.f_star for r in healed.attempts
        ]
        assert [r.x_star for r in serial.attempts] == [
            r.x_star for r in healed.attempts
        ]
        assert serial.n_evals == healed.n_evals

    def test_chaos_pool_serves_next_round_after_kill(self, tmp_path):
        backend = _kill_once(tmp_path / "killed")
        with WorkerPool(2) as pool:
            run_multistart(
                _weak_distance(), backend, _starts(5, 4),
                early_cancel=False, pool=pool,
            )
            # Every cancel slot came back cleared and the (recreated)
            # executor serves the next round.
            assert len(pool._free_slots) == CANCEL_SLOTS
            assert all(flag == 0 for flag in pool._flags)
            outcome = run_multistart(
                _weak_distance(), _backend(), _starts(6, 3),
                early_cancel=False, pool=pool,
            )
            assert len(outcome.attempts) == 3

    def test_retry_budget_exhaustion_still_raises(self):
        from repro.core import WorkerCrashError

        with WorkerPool(2) as pool:
            with pytest.raises(WorkerCrashError, match="backend exploded"):
                run_multistart(
                    _weak_distance(), CrashBackend(), _starts(1, 3),
                    pool=pool, max_crash_retries=1,
                )
            assert pool.stats()["crash_retries"] == 1
            # The aborted round released its cancel slot, cleared.
            assert len(pool._free_slots) == CANCEL_SLOTS
            assert all(flag == 0 for flag in pool._flags)
            # The pool survives even budget exhaustion.
            outcome = run_multistart(
                _weak_distance(), _backend(), _starts(5, 2),
                pool=pool,
            )
            assert len(outcome.attempts) == 2


class TestStopEventSalvage:
    def test_slotless_round_still_observes_stop_event(self, tmp_path):
        """All cancel slots taken: the round used to ignore its
        stop_event entirely; it must now stop dispatching parent-side
        and return the harvested partial outcome."""
        weak_distance = _weak_distance()
        marker = tmp_path / "started"
        backend = MarkStartBackend(marker, _backend(20_000))
        with WorkerPool(1) as pool:
            held = [pool._acquire_slot() for _ in range(CANCEL_SLOTS)]
            assert all(slot is not None for slot in held)
            assert pool._acquire_slot() is None
            stop = threading.Event()
            # Cancelled once the first start is running, so the round
            # has dispatched and must withdraw its queued starts.
            watcher = _set_when_exists(marker, stop)
            outcome = run_multistart(
                weak_distance, backend, _starts(3, 8),
                early_cancel=False, pool=pool,
                stop_event=stop,
            )
            watcher.join(timeout=60)
            assert not watcher.is_alive()
            for slot in held:
                pool._release_slot(slot)
            assert outcome.interrupted
            assert len(outcome.attempts) < 8
            # The pool still serves the next (slotted) round.
            follow_up = run_multistart(
                weak_distance, _backend(), _starts(5, 3),
                early_cancel=False, pool=pool,
            )
            assert len(follow_up.attempts) == 3
            assert not follow_up.interrupted

    def test_round_cancelled_before_dispatch_rebuilds_nothing(self):
        """A round whose stop event is set before it starts dispatches
        nothing: no cold worker unpickles the program for it."""
        weak_distance = _weak_distance()
        with WorkerPool(2) as pool:
            # Warm the digest with a one-start round: at most one of
            # the two workers holds the program.
            run_multistart(
                weak_distance, _backend(), _starts(1, 1),
                pool=pool,
            )
            assert pool.n_rebuilds == 1
            stop = threading.Event()
            stop.set()
            outcome = run_multistart(
                weak_distance, _backend(20_000), _starts(2, 6),
                early_cancel=False, pool=pool,
                stop_event=stop,
            )
            assert outcome.interrupted
            # No start reached a worker: no new worker-side rebuild.
            assert pool.n_rebuilds == 1


class TestRacingCancellation:
    def test_planted_zero_cancels_other_starts(self):
        weak_distance = _weak_distance()
        budget = 200_000
        backend = RandomSearchBackend(
            n_samples=budget, sampler=uniform_sampler(1e5, 1e6)
        )
        rngs = derive_round_rngs(3, 0, 4)
        starts = [((7.0,), rngs[0])] + [
            ((float(1e5 + i),), rng) for i, rng in enumerate(rngs[1:])
        ]
        with WorkerPool(4) as pool:
            outcome = run_multistart(
                weak_distance, backend, starts,
                pool=pool, early_cancel=True,
            )
        assert outcome.best is not None
        assert outcome.best.x_star == (7.0,)
        assert outcome.n_evals < 4 * budget * 0.25


#: Runs in a fresh interpreter: the pool forks while ``repro.gsl.hyperg``
#: is still unimported, and gsl-hyperg's W then reaches the workers
#: before they ever imported the module that registers its externals.
LATE_EXTERNALS = """
import sys

from repro.api import EngineConfig, Session

with Session(EngineConfig(n_workers=2, seed=1)) as session:
    session.run("overflow", "fig2")
    assert "repro.gsl.hyperg" not in sys.modules
    report = session.run("overflow", "gsl-hyperg", n_starts=2, max_rounds=2)
print(report.verdict, report.n_evals)
"""


class TestLateExternals:
    def test_workers_fork_when_the_pool_is_built(self):
        """Not at the first round, which a Session submits from a driver
        thread: a worker forked while another driver imports
        ``repro.gsl.hyperg`` inherits that module's import lock held,
        and hangs when unpickling gsl-hyperg's W imports it."""
        before = set(multiprocessing.active_children())
        with WorkerPool(2):
            assert len(set(multiprocessing.active_children()) - before) == 2

    def test_warm_workers_resolve_externals_registered_after_fork(self):
        """``repro.gsl.hyperg`` registers ``__hyperg_U_val`` when it is
        imported; a pickled W carries that external, so workers forked
        before the import run the job like a serial session does."""
        from repro.api import EngineConfig, Session

        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", LATE_EXTERNALS],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        with Session(EngineConfig(seed=1)) as session:
            serial = session.run(
                "overflow", "gsl-hyperg", n_starts=2, max_rounds=2
            )
        assert proc.stdout.split() == [serial.verdict, str(serial.n_evals)]

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_external_that_does_not_pickle_stays_local(
        self, monkeypatch, n_workers
    ):
        """A lambda cannot travel with W (nor feed its digest): a serial
        run, and workers forked after its registration, resolve it from
        their own registry."""
        from repro.api import EngineConfig, Session
        from repro.fpir import externals

        monkeypatch.setitem(externals._REGISTRY, "twice", lambda x: 2.0 * x)
        with Session(EngineConfig(n_workers=n_workers, seed=1)) as session:
            report = session.run(
                "sat", "twice(x) > 3 && x < 10", n_starts=2, max_rounds=2
            )
        assert report.detail.is_sat
