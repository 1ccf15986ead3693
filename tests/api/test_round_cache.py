"""The session's round-outcome cache: a round equal to one that already
ran is served, not run again.

``inconsistency`` runs ``overflow``'s campaign round for round, so in
one :class:`~repro.api.session.Session` the second job of such a pair
is served from the cache.  These tests pin what the cache may change
(nothing a report says about the program), what it must never serve
(racing rounds, sample rounds, interrupted rounds and rounds whose
backend does not pickle) and whom it serves: jobs of the same cache
scope, once the round has completed.
"""

import pickle
import threading
import time

import numpy as np
import pytest

from repro.analyses.overflow import L_SET, overflow_spec
from repro.api import EngineConfig, Session
from repro.api.events import RoundFinished, render_event
from repro.api.session import ROUND_CACHE_SIZE, RoundCache
from repro.core import WorkerPool
from repro.core.batch import BatchJob, job_request
from repro.core.parallel import MultiStartOutcome, round_key
from repro.core.weak_distance import WeakDistance
from repro.fpir.instrument import instrument
from repro.mo.base import MOBackend
from repro.mo.random_search import RandomSearchBackend
from repro.mo.starts import uniform_sampler
from repro.programs import get_program, list_programs
from repro.serve.wire import report_to_dict
from repro.testing import KillWorkerOnceBackend
from repro.util.digest import content_digest

SEED = 20190622

#: The suite workloads' jobs: 5 analyses x 8 programs (gsl-airy left
#: out, as in the suites), in both tier configurations.
SUITE_ANALYSES = ("boundary", "path", "overflow", "coverage", "inconsistency")
SUITE_PROGRAMS = [p for p in list_programs() if p != "gsl-airy"]
SUITE_TIERS = [("basinhopping", "compiled"), ("population", "vectorized")]

#: A small overflow campaign: two rounds of two starts on fig2.
OPTIONS = {"max_rounds": 2, "n_starts": 2}


def _report_key(report):
    """Everything a report says about the program (timing and
    ``n_evals_cached`` excluded)."""
    return (
        report.verdict,
        [(f.kind, f.label, f.x, f.detail) for f in report.findings],
        report.representatives,
        [
            (t.index, t.n_starts, t.n_evals, t.best_w, t.found_zero, t.note)
            for t in report.trace
        ],
        report.n_evals,
        report.rounds,
        report.samples,
        report.n_crash_retries,
    )


def _run_job(session, job):
    request = job_request(job)
    return session.submit(
        request.analysis,
        request.target,
        spec=request.spec,
        config=request.config,
        **request.options,
    ).result(timeout=300)


def _round_events(events, job_id):
    return [e for e in events if isinstance(e, RoundFinished) and e.job_id == job_id]


# ---------------------------------------------------------------------------
# A backend the tests can hold inside a round
# ---------------------------------------------------------------------------

#: Opened by the test; every gated minimization waits for it.
_GATE = threading.Event()
#: Set as soon as a gated minimization starts.
_ENTERED = threading.Event()
#: One entry per minimization run, across all jobs.
_CALLS = []


class GateBackend(MOBackend):
    """Random search that waits at :data:`_GATE` before each start.

    The gate and the call log are module globals, so the backend's
    pickle (part of every round's key) does not change as they do.
    """

    name = "gate"

    def __init__(self) -> None:
        self.inner = RandomSearchBackend(n_samples=60)

    def minimize(self, objective, start, rng):
        _CALLS.append(start)
        _ENTERED.set()
        if not _GATE.wait(60):
            raise RuntimeError("gate never opened")
        return self.inner.minimize(objective, start, rng)


class UnpicklableBackend(RandomSearchBackend):
    """A backend that cannot be pickled (it holds a lock)."""

    def __init__(self) -> None:
        super().__init__(n_samples=60)
        self.lock = threading.Lock()


@pytest.fixture
def gate():
    _GATE.clear()
    _ENTERED.clear()
    _CALLS.clear()
    yield
    _GATE.set()


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


# ---------------------------------------------------------------------------
# (a) The suites: one shared session vs a fresh session per job
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("backend,eval_mode", SUITE_TIERS)
def test_suite_reports_equal_fresh_sessions(backend, eval_mode):
    params = (("smoke", True), ("backend", backend), ("eval_mode", eval_mode))
    jobs = [
        BatchJob(analysis=a, target=p, seed=SEED, params=params)
        for a in SUITE_ANALYSES
        for p in SUITE_PROGRAMS
    ]
    events = []
    shared = {}
    with Session(EngineConfig(n_workers=1), on_event=events.append) as session:
        for job in jobs:
            shared[job] = report = _run_job(session, job)
            rounds = _round_events(events, events[-1].job_id)
            assert len(rounds) == report.rounds
            cached = sum(e.n_evals for e in rounds if e.cached)
            assert report.n_evals_cached == cached
            if job.analysis == "inconsistency":
                # Overflow ran this campaign first: every round is served.
                assert rounds and all(e.cached for e in rounds), job
                assert report.n_evals_cached == report.n_evals
        stats = session.stats()
    assert stats["round_cache_hits"] >= sum(
        shared[j].rounds for j in jobs if j.analysis == "inconsistency"
    )
    for job in jobs:
        with Session(EngineConfig(n_workers=1)) as fresh:
            alone = _run_job(fresh, job)
        assert alone.n_evals_cached == 0
        assert _report_key(shared[job]) == _report_key(alone), job


# ---------------------------------------------------------------------------
# (b) Rounds that are never cached
# ---------------------------------------------------------------------------


class TestNeverCached:
    def _twice(self, config, analysis="overflow", **options):
        events = []
        with Session(config, on_event=events.append) as session:
            first = session.run(analysis, "fig2", **options)
            second = session.run(analysis, "fig2", **options)
            stats = session.stats()
        assert not any(e.cached for e in events if isinstance(e, RoundFinished))
        assert second.n_evals_cached == 0
        assert stats["round_cache_hits"] == 0
        return first, second, stats

    def test_racing_rounds(self):
        _, _, stats = self._twice(EngineConfig(seed=3, deterministic=False))
        assert stats["round_cache_entries"] == 0

    def test_sample_recording_rounds(self):
        first, second, stats = self._twice(
            EngineConfig(seed=3), "boundary", n_starts=4, max_samples=2000
        )
        assert stats["round_cache_entries"] == 0
        assert first.samples and first.samples == second.samples

    def test_backend_that_does_not_pickle(self):
        first, second, stats = self._twice(
            EngineConfig(seed=3, backend=UnpicklableBackend()), **OPTIONS
        )
        assert stats["round_cache_entries"] == 0
        assert _report_key(first) == _report_key(second)

    def test_interrupted_round_reruns_live(self, gate):
        config = EngineConfig(seed=3, backend=GateBackend())
        events = []
        with Session(config, on_event=events.append) as session:
            victim = session.submit("overflow", "fig2", **OPTIONS)
            assert _ENTERED.wait(30)
            victim.cancel()
            _GATE.set()
            salvaged = victim.partial_result(timeout=60)
            assert salvaged.partial
            assert session.stats()["round_cache_entries"] == 0
            rerun = session.submit("overflow", "fig2", **OPTIONS)
            report = rerun.result(timeout=60)
        rounds = _round_events(events, rerun.job_id)
        assert rounds and not any(e.cached for e in rounds)
        assert report.n_evals_cached == 0
        with Session(config) as fresh:
            alone = fresh.run("overflow", "fig2", **OPTIONS)
        assert _report_key(alone) == _report_key(report)


# ---------------------------------------------------------------------------
# (c) A healed round is served without its crash retries
# ---------------------------------------------------------------------------


def test_crash_healed_round_is_served_without_retries(tmp_path):
    chaos = KillWorkerOnceBackend(
        tmp_path / "killed",
        inner=RandomSearchBackend(n_samples=40, sampler=uniform_sampler(10.0, 20.0)),
    )
    config = EngineConfig(seed=13, n_workers=2, backend=chaos)
    with Session(config) as session:
        healed = session.run("path", "fig2", n_starts=6)
        served = session.run("path", "fig2", n_starts=6)
    assert (tmp_path / "killed").exists()  # a worker really died
    assert healed.n_crash_retries >= 1
    assert served.n_crash_retries == 0
    assert served.n_evals_cached == served.n_evals == healed.n_evals
    assert _report_key(served)[:-1] == _report_key(healed)[:-1]


# ---------------------------------------------------------------------------
# (d) Concurrent equal jobs: a round in flight is not waited for
# ---------------------------------------------------------------------------


def test_concurrent_identical_jobs_agree(gate):
    """A round that is still running is not in the cache, so an equal
    job that reaches it meanwhile runs it too.  Both reports equal a
    lone run's, and each counts as cached only the rounds it was
    served."""
    events = []
    config = EngineConfig(seed=3, backend=GateBackend())
    with Session(config, max_parallel_jobs=2, on_event=events.append) as session:
        first = session.submit("overflow", "fig2", **OPTIONS)
        assert _ENTERED.wait(30)
        second = session.submit("overflow", "fig2", **OPTIONS)
        # Both jobs hold a start of round 0 at the gate.
        assert _wait_for(lambda: len(_CALLS) == 2)
        _GATE.set()
        a = first.result(timeout=60)
        b = second.result(timeout=60)
        stats = session.stats()
    with Session(config) as fresh:
        alone = fresh.run("overflow", "fig2", **OPTIONS)
    assert _report_key(a) == _report_key(b) == _report_key(alone)
    served = 0
    for report, job in ((a, first), (b, second)):
        rounds = _round_events(events, job.job_id)
        assert not rounds[0].cached
        cached = [e for e in rounds if e.cached]
        assert report.n_evals_cached == sum(e.n_evals for e in cached)
        served += len(cached)
    assert stats["round_cache_hits"] == served
    assert stats["round_cache_entries"] == a.rounds


def test_resume_in_a_fresh_session_runs_the_suffix_live():
    """Resume parity with nothing served: the replayed prefix comes
    from the checkpoints, the rest runs live in a session that never
    saw the uninterrupted run."""
    outcomes = []
    options = {"max_rounds": 3, "n_starts": 4}
    with Session(EngineConfig(seed=13, n_workers=2)) as session:
        want = session.submit(
            "overflow", "gsl-bessel",
            checkpoint=lambda i, o: outcomes.append(o), **options
        ).result(timeout=120)
    assert want.rounds == 3
    with Session(EngineConfig(seed=13, n_workers=2)) as session:
        got = session.submit(
            "overflow", "gsl-bessel", resume_rounds=outcomes[:1], **options
        ).result(timeout=120)
    assert got.n_evals_cached == 0
    assert _report_key(got) == _report_key(want)


# ---------------------------------------------------------------------------
# (e) The cache itself
# ---------------------------------------------------------------------------


def _outcome(n_evals, n_crash_retries=0):
    return MultiStartOutcome(
        attempts=[], n_evals=n_evals, samples=[], n_crash_retries=n_crash_retries
    )


class TestRoundCache:
    def test_lru_evicts_at_the_constant(self):
        cache = RoundCache()
        for i in range(ROUND_CACHE_SIZE + 1):
            assert cache.get(i) is None
            cache.put(i, _outcome(i))
            if i == 1:
                # A hit makes 0 recently used, so 1 goes first.
                assert cache.get(0).n_evals == 0
        assert len(cache) == ROUND_CACHE_SIZE
        assert cache.get(0) is not None
        assert cache.get(ROUND_CACHE_SIZE) is not None
        assert cache.get(1) is None

    def test_kept_outcome_has_no_crash_retries(self):
        cache = RoundCache()
        cache.put("k", _outcome(7, n_crash_retries=2))
        served = cache.get("k")
        assert (served.n_evals, served.n_crash_retries) == (7, 0)
        assert cache.get("other") is None
        assert cache.n_hits == 1

    def test_cache_scope_bounds_sharing(self):
        with Session(EngineConfig(seed=3)) as session:
            session.submit("overflow", "fig2", cache_scope="a", **OPTIONS).result()
            other = session.submit(
                "overflow", "fig2", cache_scope="b", **OPTIONS
            ).result()
            same = session.submit(
                "overflow", "fig2", cache_scope="a", **OPTIONS
            ).result()
        assert other.n_evals_cached == 0
        assert same.n_evals_cached == same.n_evals > 0
        assert _report_key(other) == _report_key(same)

    def test_stats_and_rendering(self):
        with Session(EngineConfig(seed=3)) as session:
            session.run("overflow", "fig2", **OPTIONS)
            events = []
            report = session.submit(
                "overflow", "fig2", on_event=events.append, **OPTIONS
            ).result(timeout=60)
            stats = session.stats()
        assert stats["round_cache_hits"] == report.rounds
        assert stats["round_cache_entries"] == report.rounds
        assert report_to_dict(report)["n_evals_cached"] == report.n_evals
        finished = [e for e in events if isinstance(e, RoundFinished)]
        assert all(render_event(e).endswith("[cached]") for e in finished)


# ---------------------------------------------------------------------------
# The key and the W digest
# ---------------------------------------------------------------------------


def _overflow_w(name="fig2", eval_mode=None):
    """Algorithm 3's W for a suite program, with an empty set ``L``."""
    return WeakDistance(
        instrument(get_program(name), overflow_spec()), eval_mode=eval_mode
    )


def _starts(seed, n=2):
    rngs = [np.random.default_rng([seed, i]) for i in range(n)]
    return [((float(rng.uniform(-5, 5)),), rng) for rng in rngs]


class TestRoundKey:
    def test_equal_inputs_equal_keys(self):
        backend = RandomSearchBackend(n_samples=60)
        key = round_key(_overflow_w(), backend, _starts(1), None, True)
        assert key == round_key(_overflow_w(), backend, _starts(1), None, True)

    @pytest.mark.parametrize(
        "change",
        ["program", "eval_mode", "labels", "backend", "starts", "budget", "zero"],
    )
    def test_every_input_is_in_the_key(self, change):
        backend = RandomSearchBackend(n_samples=60)
        base = round_key(_overflow_w(), backend, _starts(1), None, True)
        w, starts, budget, zero = _overflow_w(), _starts(1), None, True
        if change == "program":
            w = _overflow_w("fig1a")
        elif change == "eval_mode":
            w = _overflow_w(eval_mode="vectorized")
        elif change == "labels":
            w.label_sets[L_SET].add("l0")
        elif change == "backend":
            backend = RandomSearchBackend(n_samples=61)
        elif change == "starts":
            starts = _starts(2)
        elif change == "budget":
            budget = 100
        else:
            zero = False
        assert round_key(w, backend, starts, budget, zero) != base

    def test_generator_state_is_read_not_consumed(self):
        starts = _starts(1)
        state = [rng.bit_generator.state for _, rng in starts]
        round_key(_overflow_w(), RandomSearchBackend(), starts, None, True)
        assert [rng.bit_generator.state for _, rng in starts] == state

    def test_label_order_does_not_matter(self):
        backend = RandomSearchBackend()
        a, b = _overflow_w(), _overflow_w()
        a.label_sets[L_SET].update(["l1", "l2", "l3"])
        b.label_sets[L_SET].update(["l3", "l1", "l2"])
        assert round_key(a, backend, _starts(1), None, True) == round_key(
            b, backend, _starts(1), None, True
        )

    def test_unpicklable_backend_has_no_key(self):
        backend = UnpicklableBackend()
        assert round_key(_overflow_w(), backend, _starts(1), None, True) is None


class TestWeakDistanceDigest:
    def test_memoized_and_left_out_of_the_pickle(self):
        w = _overflow_w()
        assert w.digest == content_digest(w)
        assert w._digest is not None
        clone = pickle.loads(pickle.dumps(w))
        assert clone._digest is None
        assert clone.digest == w.digest

    def test_pool_reads_the_memo(self):
        w = _overflow_w()
        w._digest = "memo"
        with WorkerPool(1) as pool:
            digest, _ = pool._program_blob(w)
        assert digest == "memo"
