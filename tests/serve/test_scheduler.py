"""Scheduler: tenant fairness, quotas, cancellation, finalization."""

import threading
import time

import pytest

from repro.api import EngineConfig, Session
from repro.api.events import JobFinished
from repro.serve import CheckpointJournal, Scheduler, WireError


def payload(**extra):
    base = {"analysis": "coverage", "target": "fig2", "seed": 7,
            "smoke": True}
    base.update(extra)
    return base


def wait_settled(job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not job.settled:
        assert time.monotonic() < deadline, f"job {job.job_id} stuck"
        time.sleep(0.02)
    return job


@pytest.fixture
def session():
    with Session(EngineConfig(seed=7, n_workers=2)) as session:
        yield session


class TestLifecycle:
    def test_submit_runs_and_finalizes(self, session, tmp_path):
        journal = CheckpointJournal(tmp_path / "store")
        scheduler = Scheduler(session, journal=journal)
        try:
            job = scheduler.submit("t", payload())
            wait_settled(job)
            assert job.state == "done"
            assert job.report["verdict"] == "found"
            assert job.events.closed
            assert job.n_checkpointed_rounds == job.report["rounds"]
            entry = journal.load()[job.job_id]
            assert entry.settled and entry.state == "done"
            assert len(entry.outcomes()) == job.report["rounds"]
        finally:
            scheduler.close()

    def test_not_settled_until_journaled(self, session, tmp_path):
        """The terminal state is observable last: while the journal's
        ``done`` record is being written the job reads as unsettled,
        so a kill -9 in that window cannot lose a job a client already
        saw finish."""

        class BlockingJournal(CheckpointJournal):
            entered = threading.Event()
            release = threading.Event()

            def record_done(self, *args, **kwargs):
                self.entered.set()
                assert self.release.wait(60)
                super().record_done(*args, **kwargs)

        journal = BlockingJournal(tmp_path / "store")
        scheduler = Scheduler(session, journal=journal)
        try:
            job = scheduler.submit("t", payload())
            assert journal.entered.wait(60)
            time.sleep(0.05)
            assert not job.settled
            assert job.report is not None and job.events.closed
            journal.release.set()
            wait_settled(job)
            assert job.state == "done"
            assert journal.load()[job.job_id].settled
        finally:
            journal.release.set()
            scheduler.close()

    def test_job_finishing_before_submit_returns(self, session):
        """A job may emit ``JobFinished`` before ``Session.submit`` has
        returned its handle (a resumed job whose every round is
        journaled does); the finalizer waits for the handle and the job
        still settles as done."""

        class LateHandle:
            def __getattr__(self, name):
                return getattr(session, name)

            def submit(self, *args, on_event, **kwargs):
                finished = threading.Event()

                def relay(event):
                    on_event(event)
                    if isinstance(event, JobFinished):
                        finished.set()

                handle = session.submit(*args, on_event=relay, **kwargs)
                assert finished.wait(60)
                time.sleep(0.05)  # the finalizer has the job by now
                return handle

        scheduler = Scheduler(LateHandle())
        try:
            job = wait_settled(scheduler.submit("t", payload()))
            assert job.state == "done", job.error
            assert job.report["verdict"] == "found"
        finally:
            scheduler.close()

    def test_bad_payload_rejected_without_journaling(
        self, session, tmp_path
    ):
        journal = CheckpointJournal(tmp_path / "store")
        scheduler = Scheduler(session, journal=journal)
        try:
            with pytest.raises(WireError):
                scheduler.submit("t", payload(bogus=1))
            assert journal.load() == {}
        finally:
            scheduler.close()

    def test_event_log_narrates_the_job(self, session):
        scheduler = Scheduler(session)
        try:
            job = scheduler.submit("t", payload())
            wait_settled(job)
            records, closed = job.events.collect(timeout=5)
            assert closed
            assert records[0]["event"] == "JobStarted"
            assert records[-1]["event"] == "JobFinished"
            assert [r["seq"] for r in records] == list(range(len(records)))
        finally:
            scheduler.close()


class TestFairness:
    def test_quota_caps_a_tenant_not_the_server(self, session):
        """With quota=1 a tenant's jobs serialize while another
        tenant's job still runs alongside."""
        scheduler = Scheduler(session, quota=1, max_active=2)
        try:
            hog_a = scheduler.submit("hog", payload())
            hog_b = scheduler.submit("hog", payload())
            other = scheduler.submit("other", payload())
            for job in (hog_a, hog_b, other):
                wait_settled(job)
                assert job.state == "done"
            # hog's second job never overlapped its first.
            assert hog_b.started >= hog_a.finished
        finally:
            scheduler.close()

    def test_round_robin_interleaves_tenants(self, session):
        """One tenant queueing a pile does not starve a later tenant:
        with one running slot, the other tenant's first job starts
        before the hog's backlog drains."""
        scheduler = Scheduler(session, quota=1, max_active=1)
        try:
            hogs = [scheduler.submit("hog", payload()) for _ in range(3)]
            other = scheduler.submit("other", payload())
            for job in hogs + [other]:
                wait_settled(job)
            assert other.started < hogs[-1].started
        finally:
            scheduler.close()


class TestCancellation:
    def test_cancel_queued_job_drops_it(self, session):
        scheduler = Scheduler(session, quota=1, max_active=1)
        try:
            running = scheduler.submit("t", payload())
            queued = scheduler.submit("t", payload())
            cancelled = scheduler.cancel(queued.job_id, "t")
            assert cancelled is queued
            assert queued.state == "cancelled"
            assert queued.events.closed
            wait_settled(running)
            assert running.state == "done"
        finally:
            scheduler.close()

    def test_cancel_running_job_salvages(self, session):
        # A real multi-round budget so cancellation can land mid-job.
        scheduler = Scheduler(session)
        try:
            job = scheduler.submit(
                "t",
                {"analysis": "overflow", "target": "gsl-bessel",
                 "seed": 3, "niter": 60, "rounds": 50, "starts": 4},
            )
            while job.events.next_seq < 2:  # let it get going
                time.sleep(0.02)
            scheduler.cancel(job.job_id, "t")
            assert job.state == "cancelled"
            # Lossless: whatever completed before the flag landed
            # survives as a partial report.
            if job.report is not None:
                assert job.report["partial"] is True
        finally:
            scheduler.close()

    def test_cancel_respects_tenant_isolation(self, session):
        scheduler = Scheduler(session)
        try:
            job = scheduler.submit("owner", payload())
            assert scheduler.cancel(job.job_id, "intruder") is None
            assert scheduler.get(job.job_id, "intruder") is None
            assert scheduler.get(job.job_id, "owner") is job
            wait_settled(job)
        finally:
            scheduler.close()


class TestResumeSupport:
    def test_restored_ids_never_collide(self, session):
        scheduler = Scheduler(session)
        try:
            scheduler.claim_job_id("j7")
            job = scheduler.submit("t", payload())
            assert job.job_id == "j8"
            wait_settled(job)
        finally:
            scheduler.close()

    def test_restore_settled_is_queryable_but_inert(self, session):
        scheduler = Scheduler(session)
        try:
            restored = scheduler.restore_settled(
                "j0", "t", payload(), "done", {"verdict": "found"}, None
            )
            assert scheduler.get("j0", "t") is restored
            assert restored.settled and restored.events.closed
            assert scheduler.stats()["running"] == 0
        finally:
            scheduler.close()
