"""The persistent Session service: async jobs, events, warm pool."""

import os
import threading
import time
from concurrent.futures import CancelledError

import pytest

from repro.api import (
    Engine,
    EngineConfig,
    JobFinished,
    JobRequest,
    JobStarted,
    RoundFinished,
    RoundRetried,
    RoundStarted,
    Session,
    StartCrashed,
)
from repro.api.session import JobHandle
from repro.core import WorkerCrashError, WorkerPool
from repro.mo.base import MOBackend
from repro.mo.random_search import RandomSearchBackend
from repro.mo.starts import uniform_sampler
from repro.testing import KillWorkerOnceBackend

#: Same CI-sized workloads as the engine parity suite.
CASES = [
    ("boundary", "fig2", {"n_starts": 6, "max_samples": 6000}),
    ("path", "fig2", {"n_starts": 6}),
    ("overflow", "fig2", {}),
    ("coverage", "fig2", {}),
    ("sat", "x < 1 && x + 1 >= 2", {}),
]


class CrashBackend(MOBackend):
    name = "crash"

    def minimize(self, objective, start, rng):
        raise ValueError("backend exploded")


class GatedBackend(MOBackend):
    """Deterministic cancel-salvage orchestration.

    The first ``n_fast`` minimizations (atomic ticket files under
    ``gate_dir``) run the inner backend and drop a ``done-<ticket>``
    marker; every later call blocks until the round's cancel flag
    lands, so a test can wait for the fast starts to finish, cancel,
    and know exactly which starts the salvage may contain.
    """

    name = "gated"

    def __init__(self, gate_dir, n_fast, inner):
        self.gate_dir = str(gate_dir)
        self.n_fast = n_fast
        self.inner = inner

    def _claim(self) -> int:
        for ticket in range(10_000):
            path = os.path.join(self.gate_dir, f"claim-{ticket}")
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return ticket
        raise RuntimeError("gate overflow")

    def minimize(self, objective, start, rng):
        ticket = self._claim()
        if ticket < self.n_fast:
            result = self.inner.minimize(objective, start, rng)
            done = os.open(
                os.path.join(self.gate_dir, f"done-{ticket}"),
                os.O_CREAT | os.O_WRONLY,
            )
            os.close(done)
            return result
        deadline = time.time() + 120
        while time.time() < deadline:
            if objective.should_stop is not None and objective.should_stop():
                # Mimics a cancellation before the first evaluation:
                # run_task turns this into a result-less report.
                raise RuntimeError("cancelled at the gate")
            time.sleep(0.01)
        raise RuntimeError("gate never released")


def _fingerprint(report):
    return (
        report.verdict,
        [(f.kind, f.label, f.x) for f in report.findings],
    )


class TestPayloadCache:
    def test_two_jobs_one_rebuild_per_distinct_program(self):
        """The acceptance bar: a two-job session performs exactly one
        worker-side payload rebuild per distinct program."""
        with WorkerPool(1) as pool:
            with Session(EngineConfig(seed=5, pool=pool)) as session:
                first = session.run("overflow", "fig2")
                # Another seed, so the round cache serves none of the
                # second job's rounds: both jobs reach the pool.
                second = session.run(
                    "overflow", "fig2", config=EngineConfig(seed=6)
                )
                assert first.verdict == second.verdict
                assert second.n_evals_cached == 0
                # Both jobs, all their rounds: one program, one rebuild.
                assert first.rounds + second.rounds > 2
                assert pool.n_programs == 1
                assert pool.n_rebuilds == 1
                third = session.run("overflow", "fig1a")
                assert third.rounds >= 1
                assert pool.n_programs == 2
                assert pool.n_rebuilds == 2

    def test_rebuilds_bounded_by_workers(self):
        with Session(EngineConfig(seed=7, n_workers=2)) as session:
            session.run("path", "fig2", n_starts=6)
            second = session.run(
                "path", "fig2", n_starts=6,
                config=EngineConfig(seed=8, n_workers=2),
            )
            stats = session.stats()
        assert second.n_evals_cached == 0
        assert stats["jobs"] == 2
        assert stats["programs"] == 1
        assert stats["rebuilds"] <= 2  # at most one per worker


class TestSerialWarmPoolParity:
    @pytest.mark.parametrize("name,target,options", CASES)
    def test_all_analyses_agree_with_serial(self, name, target, options):
        """Serial vs warm-pool n_workers=4 through one shared session:
        identical verdicts, representatives, eval counts, samples."""
        serial = Engine(EngineConfig(seed=11)).run(name, target, **options)
        with Session(EngineConfig(seed=11, n_workers=4)) as session:
            warm = session.run(name, target, **options)
        assert _fingerprint(serial) == _fingerprint(warm)
        assert serial.n_evals == warm.n_evals
        assert [t.n_evals for t in serial.trace] == [
            t.n_evals for t in warm.trace
        ]
        assert serial.samples == warm.samples


class TestAsyncSubmission:
    def test_submit_returns_quickly_and_results_in_any_order(self):
        with Session(EngineConfig(seed=2, n_workers=2)) as session:
            first = session.submit("path", "fig2", n_starts=4)
            second = session.submit("sat", "x < 1 && x + 1 >= 2")
            second_report = second.result(timeout=120)
            first_report = first.result(timeout=120)
        assert first.done() and second.done()
        assert first_report.verdict == "found"
        assert second_report.verdict == "found"
        assert first.job_id != second.job_id

    def test_run_many_preserves_job_order(self):
        jobs = [
            JobRequest("path", "fig2", options={"n_starts": 4}),
            ("sat", "x < 1 && x + 1 >= 2"),
            {"analysis": "sat", "target": "x > 1 && x < 0",
             "options": {"n_starts": 3}},
        ]
        with Session(EngineConfig(seed=3, n_workers=2)) as session:
            reports = session.run_many(jobs)
        assert [r.analysis for r in reports] == ["path", "sat", "sat"]
        assert reports[0].verdict == "found"
        assert reports[2].verdict == "not-found"

    def test_run_many_captures_errors(self):
        jobs = [
            ("coverage", "no-such-program"),
            JobRequest("path", "fig2", options={"n_starts": 4}),
        ]
        with Session(EngineConfig(seed=3)) as session:
            results = session.run_many(jobs, capture_errors=True)
        assert isinstance(results[0], KeyError)
        assert "no-such-program" in str(results[0])
        assert results[1].verdict == "found"

    def test_per_job_config_overrides_session_seed(self):
        with Session(EngineConfig(seed=1)) as session:
            default = session.run("path", "fig2", n_starts=4)
            override = session.run(
                "path", "fig2", n_starts=4, config=EngineConfig(seed=99)
            )
        assert default.seed == 1
        assert override.seed == 99

    def test_closed_session_rejects_jobs(self):
        session = Session(EngineConfig(seed=1))
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.submit("path", "fig2")


class TestEvents:
    def test_typed_event_stream_shape(self):
        events = []
        lock = threading.Lock()

        def on_event(event):
            with lock:
                events.append(event)

        with Session(EngineConfig(seed=4), on_event=on_event) as session:
            report = session.run("overflow", "fig2")
        kinds = [type(e) for e in events]
        assert kinds[0] is JobStarted
        assert kinds[-1] is JobFinished
        starts = [e for e in events if isinstance(e, RoundStarted)]
        finishes = [e for e in events if isinstance(e, RoundFinished)]
        assert len(starts) == len(finishes) == report.rounds
        assert [e.round_index for e in finishes] == list(range(report.rounds))
        assert sum(e.n_evals for e in finishes) == report.n_evals
        finished = events[-1]
        assert finished.ok
        assert finished.verdict == report.verdict
        assert all(e.analysis == "overflow" for e in events)

    def test_job_error_emits_finished_event(self):
        events = []
        with Session(EngineConfig(seed=4), on_event=events.append) as session:
            handle = session.submit("coverage", "no-such-program")
            with pytest.raises(KeyError):
                handle.result(timeout=60)
        finished = [e for e in events if isinstance(e, JobFinished)]
        assert len(finished) == 1
        assert not finished[0].ok
        assert "no-such-program" in finished[0].error


class TestJsonlEventSink:
    """The machine-readable event stream (ROADMAP dashboard item)."""

    def _read_records(self, path):
        import json

        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh]

    def test_session_writes_jsonl_to_path(self, tmp_path):
        out = tmp_path / "events.jsonl"
        with Session(EngineConfig(seed=4), event_sink=str(out)) as session:
            report = session.run("overflow", "fig2")
        records = self._read_records(out)
        assert records[0]["event"] == "JobStarted"
        assert records[-1]["event"] == "JobFinished"
        assert records[-1]["verdict"] == report.verdict
        rounds = [r for r in records if r["event"] == "RoundFinished"]
        assert len(rounds) == report.rounds
        assert all(r["analysis"] == "overflow" for r in records)
        assert all("ts" in r for r in records)

    def test_sink_composes_with_on_event(self, tmp_path):
        out = tmp_path / "events.jsonl"
        seen = []
        with Session(
            EngineConfig(seed=2), on_event=seen.append, event_sink=str(out)
        ) as session:
            session.run("coverage", "fig2")
        assert len(self._read_records(out)) == len(seen)

    def test_caller_owned_sink_stays_open(self, tmp_path):
        from repro.api import JsonlEventSink

        out = tmp_path / "events.jsonl"
        with JsonlEventSink(out) as sink:
            with Session(EngineConfig(seed=2), event_sink=sink) as session:
                session.run("coverage", "fig2")
            # The session must not have closed a sink it did not open.
            assert sink.n_events > 0
            before = sink.n_events
            sink(JobStarted(job_id=99, analysis="probe", target="t"))
            assert sink.n_events == before + 1
        records = self._read_records(out)
        assert records[-1]["analysis"] == "probe"

    def test_event_to_dict_roundtrip(self):
        from repro.api import event_to_dict

        event = RoundFinished(
            job_id=1,
            analysis="path",
            target="fig2",
            round_index=0,
            n_evals=10,
            best_w=0.5,
            found_zero=False,
        )
        record = event_to_dict(event)
        assert record["event"] == "RoundFinished"
        assert record["best_w"] == 0.5
        assert record["found_zero"] is False


class TestCancellation:
    def test_cancel_mid_round(self):
        """cancel() stops a round in flight, not just between rounds."""
        started = threading.Event()

        def on_event(event):
            if isinstance(event, RoundStarted):
                started.set()

        config = EngineConfig(
            seed=3,
            n_workers=2,
            # One enormous round: ~minutes if allowed to finish.
            backend=RandomSearchBackend(
                n_samples=5_000_000, sampler=uniform_sampler(10.0, 20.0)
            ),
            start_sampler=uniform_sampler(10.0, 20.0),
        )
        t0 = time.perf_counter()
        with Session(config, on_event=on_event) as session:
            handle = session.submit("path", "fig2", n_starts=4)
            assert started.wait(timeout=60)
            time.sleep(0.2)  # let the workers get going mid-round
            assert handle.cancel()
            with pytest.raises(CancelledError):
                handle.result(timeout=60)
        assert handle.cancelled() and handle.done()
        assert time.perf_counter() - t0 < 30.0
        # A finished job cannot be cancelled again.
        assert not handle.cancel()

    def test_successful_cancel_always_wins_over_late_completion(self):
        """A True cancel() implies CancelledError even when the driver
        was already wrapping up the final round."""
        handle = JobHandle(0, "path", "fig2")
        assert handle.cancel()
        handle._complete(object(), None, False)  # driver finished anyway
        assert handle.cancelled()
        with pytest.raises(CancelledError):
            handle.result(timeout=1)

    def test_run_many_captures_cancelled_jobs(self, monkeypatch):
        """CancelledError derives from BaseException; capture_errors
        must still swallow it."""
        session = Session(EngineConfig())
        cancelled = JobHandle(0, "path", "fig2")
        cancelled._complete(None, None, True)
        monkeypatch.setattr(session, "submit", lambda *a, **k: cancelled)
        results = session.run_many([("path", "fig2")], capture_errors=True)
        assert isinstance(results[0], CancelledError)
        session.close()

    def test_cancelled_job_emits_cancelled_event(self):
        events = []
        config = EngineConfig(
            seed=3,
            n_workers=2,
            backend=RandomSearchBackend(
                n_samples=5_000_000, sampler=uniform_sampler(10.0, 20.0)
            ),
            start_sampler=uniform_sampler(10.0, 20.0),
        )
        with Session(config, on_event=events.append) as session:
            handle = session.submit("path", "fig2", n_starts=4)
            while not any(isinstance(e, RoundStarted) for e in events):
                time.sleep(0.01)
            handle.cancel()
            with pytest.raises(CancelledError):
                handle.result(timeout=60)
        finished = [e for e in events if isinstance(e, JobFinished)]
        assert len(finished) == 1 and finished[0].cancelled


def _wait_for_files(paths, timeout=120.0) -> bool:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if all(os.path.exists(p) for p in paths):
            return True
        time.sleep(0.01)
    return False


class TestChaosSelfHealing:
    """Kill a live worker mid-round through the whole service stack."""

    def test_chaos_killed_worker_job_heals_and_siblings_unaffected(
        self, tmp_path
    ):
        marker = tmp_path / "killed"
        chaos = KillWorkerOnceBackend(
            marker,
            inner=RandomSearchBackend(
                n_samples=40, sampler=uniform_sampler(10.0, 20.0)
            ),
        )
        # The crash-free reference: a serial run in the parent process
        # (where the chaos backend never fires).
        serial = Engine(EngineConfig(seed=13, backend=chaos)).run(
            "path", "fig2", n_starts=6
        )
        events = []
        lock = threading.Lock()

        def on_event(event):
            with lock:
                events.append(event)

        with Session(
            EngineConfig(seed=13, n_workers=2), on_event=on_event
        ) as session:
            victim = session.submit(
                "path", "fig2", n_starts=6,
                config=EngineConfig(seed=13, backend=chaos),
            )
            sibling = session.submit("sat", "x < 1 && x + 1 >= 2")
            healed = victim.result(timeout=240)
            sibling_report = sibling.result(timeout=240)
            stats = session.stats()
        assert marker.exists()  # a worker really died mid-round
        # (a) the job completed with serial-parity results.
        assert _fingerprint(serial) == _fingerprint(healed)
        assert serial.n_evals == healed.n_evals
        assert serial.samples == healed.samples
        assert healed.n_crash_retries >= 1
        assert not healed.partial
        # (b) the sibling job on the shared pool still succeeded.
        assert sibling_report.verdict == "found"
        # (c) the pool's lifetime stats count the salvage.
        assert stats["crash_retries"] >= 1
        assert stats["broken_executors"] >= 1
        # The salvage narrated itself through typed events.
        crashes = [e for e in events if isinstance(e, StartCrashed)]
        retries = [e for e in events if isinstance(e, RoundRetried)]
        assert crashes and retries
        assert retries[0].n_lost >= 1
        assert retries[0].attempt == 1
        finished = {
            e.job_id: e for e in events if isinstance(e, JobFinished)
        }
        assert finished[victim.job_id].ok
        assert finished[sibling.job_id].ok


class TestCancelSalvage:
    """cancel() is lossless: completed starts become a partial report."""

    def test_cancel_salvages_partial_coverage_report(self, tmp_path):
        inner = RandomSearchBackend(
            n_samples=500, sampler=uniform_sampler(-100.0, 100.0)
        )
        sampler = uniform_sampler(-100.0, 100.0)
        full = Engine(
            EngineConfig(seed=21, backend=inner, start_sampler=sampler)
        ).run("coverage", "fig2", n_starts=6, max_rounds=1)
        assert full.detail.covered_arms
        events = []
        gated = GatedBackend(tmp_path, n_fast=2, inner=inner)
        with Session(
            EngineConfig(
                seed=21, n_workers=2, backend=gated, start_sampler=sampler
            ),
            on_event=events.append,
        ) as session:
            handle = session.submit(
                "coverage", "fig2", n_starts=6, max_rounds=1
            )
            assert _wait_for_files(
                [tmp_path / "done-0", tmp_path / "done-1"]
            )
            report = handle.cancel(wait=True, timeout=240)
        # result() keeps its CancelledError contract...
        assert handle.cancelled()
        with pytest.raises(CancelledError):
            handle.result(timeout=5)
        # ...but the salvage is a real AnalysisReport, flagged partial,
        # with a non-empty label set that is a subset of the full
        # run's (the completed starts replayed the same trajectories).
        assert report is not None and report.partial
        assert report.detail.covered_arms
        assert report.detail.covered_arms <= full.detail.covered_arms
        assert handle.partial_result(timeout=5) is report
        finished = [e for e in events if isinstance(e, JobFinished)]
        assert len(finished) == 1
        assert finished[0].cancelled and finished[0].partial

    def test_cancel_salvages_partial_boundary_report(self, tmp_path):
        from repro.mo.registry import resolve_backend

        sampler = uniform_sampler(-100.0, 100.0)
        full = Engine(EngineConfig(seed=21, start_sampler=sampler)).run(
            "boundary", "fig2", n_starts=6, max_samples=6000
        )
        full_labels = {f.label for f in full.findings}
        assert full_labels  # fig2 has reachable boundary conditions
        gated = GatedBackend(
            tmp_path, n_fast=2, inner=resolve_backend(None)
        )
        with Session(
            EngineConfig(
                seed=21, n_workers=2, backend=gated, start_sampler=sampler
            )
        ) as session:
            handle = session.submit(
                "boundary", "fig2", n_starts=6, max_samples=6000
            )
            assert _wait_for_files(
                [tmp_path / "done-0", tmp_path / "done-1"]
            )
            report = handle.cancel(wait=True, timeout=240)
        assert report is not None and report.partial
        # Real salvage: the completed starts' recorded samples made it
        # into the partial report...
        assert report.samples
        assert set(report.samples) <= set(full.samples)
        # ...and the partial BV label set is a subset of the full
        # run's (satellite acceptance).
        partial_labels = {f.label for f in report.findings}
        assert partial_labels <= full_labels
        partial_bv = set(map(tuple, report.detail.boundary_values))
        full_bv = set(map(tuple, full.detail.boundary_values))
        assert partial_bv <= full_bv

    def test_partial_result_on_completed_job_is_the_full_report(self):
        with Session(EngineConfig(seed=2)) as session:
            handle = session.submit("path", "fig2", n_starts=4)
            report = handle.result(timeout=120)
            assert handle.partial_result(timeout=5) is report
            assert not report.partial
            # cancel(wait=True) after completion also hands the full
            # report back instead of pretending nothing exists.
            assert handle.cancel(wait=True, timeout=5) is report
            assert not handle.cancelled()


class TestCrashRecovery:
    def test_worker_crash_leaves_pool_usable_for_next_job(self):
        with Session(EngineConfig(seed=1, n_workers=2)) as session:
            crashing = session.submit(
                "path", "fig2", n_starts=3,
                config=EngineConfig(seed=1, backend=CrashBackend()),
            )
            with pytest.raises(WorkerCrashError, match="backend exploded"):
                crashing.result(timeout=120)
            # Same session, same (still-warm) pool: next job succeeds.
            report = session.run("path", "fig2", n_starts=4)
            assert report.verdict == "found"
            pool = session.pool
            assert pool is not None and not pool.closed


class TestEngineDelegation:
    def test_engine_run_is_a_one_shot_session(self):
        report = Engine(EngineConfig(seed=11, n_workers=2)).run(
            "path", "fig2", n_starts=4
        )
        assert report.verdict == "found"
        assert report.n_workers == 2

    def test_injected_pool_drives_job_concurrency(self):
        # config.n_workers stays 1 when only pool= is set; the job
        # concurrency must come from the pool's worker count.
        with WorkerPool(2) as pool:
            with Session(EngineConfig(pool=pool)) as session:
                assert session._max_parallel_jobs == 2

    def test_engine_reuses_externally_owned_pool(self):
        with WorkerPool(2) as pool:
            engine = Engine(EngineConfig(seed=11, pool=pool))
            engine.run("path", "fig2", n_starts=4)
            engine.run("path", "fig2", n_starts=4)
            assert pool.n_rebuilds <= 2  # warm across Engine.run calls
            assert pool.n_programs == 1
            assert not pool.closed  # the engine never closes a shared pool
