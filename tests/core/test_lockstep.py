"""Lockstep serial rounds: every start of a round stepped together.

On a vectorized W, a serial round whose backend speaks ask/tell runs
all its starts through one driver (:func:`repro.mo.base.drive`), one
kernel call per step that is wide enough for the kernel (population
generations, random-search chunks) and point by point otherwise
(basinhopping's one-point asks).  Starts are independent, so the round
must equal
the same tasks run one at a time through :func:`run_task` — per start
(``MOResult``, evaluation count, samples) and for the round — and the
serial loop's ``early_cancel`` and ``stop_event`` semantics must hold.
"""

import threading

import pytest

from repro.analyses.boundary import multiplicative_spec
from repro.analyses.overflow import overflow_spec
from repro.core import parallel
from repro.core.parallel import StartTask, run_multistart, run_task
from repro.core.weak_distance import WeakDistance
from repro.fpir.batch_eval import BatchExecutionError, BatchProgram
from repro.fpir.instrument import instrument
from repro.mo.population import PopulationBackend
from repro.mo.random_search import RandomSearchBackend
from repro.mo.scipy_backends import BasinhoppingBackend
from repro.mo.starts import DEFAULT_SAMPLER
from repro.programs.suite import get_program
from repro.util.rng import derive_round_rngs

BACKENDS = {
    "basinhopping": lambda: BasinhoppingBackend(niter=4, local_maxiter=10),
    "population": lambda: PopulationBackend(n_generations=20),
    "random-search": lambda: RandomSearchBackend(n_samples=300, batch_size=32),
}
SPECS = {"overflow": overflow_spec, "multiplicative": multiplicative_spec}
#: (stop_at_zero, max_evals_per_start, record_samples)
CONFIGS = {
    "stop-at-zero": (True, None, True),
    "run-through": (False, None, True),
    "budget": (True, 150, False),
}


def _weak_distance(program, spec, eval_mode="vectorized"):
    return WeakDistance(instrument(get_program(program), SPECS[spec]()),
                        eval_mode=eval_mode)


def _starts(seed, n_starts, n_inputs):
    return [(DEFAULT_SAMPLER(rng, n_inputs), rng)
            for rng in derive_round_rngs(seed, 0, n_starts)]


def _tasks(backend, seed, n_starts, n_inputs, stop_at_zero=True,
           max_evals=None, record_samples=True):
    return [
        StartTask(index=i, start=start, rng=rng, backend=backend,
                  record_samples=record_samples, max_evals=max_evals,
                  stop_at_zero=stop_at_zero)
        for i, (start, rng) in enumerate(_starts(seed, n_starts, n_inputs))
    ]


def _one_at_a_time(wd, tasks, early_cancel=False):
    """The serial loop, spelled out: one start after another through
    ``run_task``, stopping after the first zero under early cancel."""
    attempts, n_evals, samples = [], 0, []
    for task in tasks:
        report = run_task(wd, task)
        attempts.append(report.result)
        n_evals += report.n_evals
        samples.extend(report.samples)
        if early_cancel and task.stop_at_zero and report.result.stopped_at_zero:
            break
    return attempts, n_evals, samples


def _lockstep(wd, n_inputs, backend, seed, n_starts, monkeypatch,
              early_cancel=False, stop_at_zero=True, max_evals=None,
              record_samples=True, stop_event=None):
    """``run_multistart`` serially, asserting it took the lockstep path."""
    widths = []
    drive = parallel.drive

    def recording_drive(searches, **kwargs):
        widths.append(len(searches))
        return drive(searches, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(parallel, "drive", recording_drive)
        outcome = run_multistart(
            wd, backend, _starts(seed, n_starts, n_inputs),
            record_samples=record_samples,
            max_evals_per_start=max_evals, stop_at_zero=stop_at_zero,
            early_cancel=early_cancel, stop_event=stop_event,
        )
    assert widths == [n_starts], "the round did not run in lockstep"
    return outcome


def _assert_same(outcome, reference):
    attempts, n_evals, samples = reference
    assert outcome.attempts == attempts
    assert outcome.n_evals == n_evals
    assert outcome.samples == samples
    assert not outcome.interrupted


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("spec", sorted(SPECS))
@pytest.mark.parametrize("program", ["fig2", "sec51-gh", "gsl-bessel"])
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_lockstep_equals_one_at_a_time(backend, program, spec, config,
                                       monkeypatch):
    stop_at_zero, max_evals, record = CONFIGS[config]
    wd = _weak_distance(program, spec)
    n = wd.program.num_inputs
    options = dict(stop_at_zero=stop_at_zero, max_evals=max_evals,
                   record_samples=record)
    outcome = _lockstep(wd, n, BACKENDS[backend](), 5, 4, monkeypatch,
                        **options)
    reference = _one_at_a_time(
        wd, _tasks(BACKENDS[backend](), 5, 4, n, **options)
    )
    _assert_same(outcome, reference)
    assert len(outcome.attempts) == 4
    if max_evals is not None:
        assert all(a.n_evals <= max_evals for a in outcome.attempts)
    assert bool(outcome.samples) == record


def test_wide_basinhopping_round_reaches_the_kernel(monkeypatch):
    """Basinhopping asks one point per live start, so only a round of
    ``BATCH_MIN_POINTS`` (32) or more live starts sends its steps to the
    kernel.  40 starts on gsl-bessel's overflow W, none stopping at a
    zero: the kernel scores every step of the round, and every start
    still equals a one-at-a-time run on the compiled tier."""
    from repro.mo.base import BATCH_MIN_POINTS

    wd = _weak_distance("gsl-bessel", "overflow")
    compiled = _weak_distance("gsl-bessel", "overflow", "compiled")
    n = wd.program.num_inputs
    calls = []
    evaluate_batch = wd.evaluate_batch
    wd.evaluate_batch = lambda X: calls.append(len(X)) or evaluate_batch(X)
    outcome = _lockstep(wd, n, BACKENDS["basinhopping"](), 5, 40,
                        monkeypatch, stop_at_zero=False)
    reference = _one_at_a_time(
        compiled,
        _tasks(BACKENDS["basinhopping"](), 5, 40, n, stop_at_zero=False),
    )
    assert calls and min(calls) >= BATCH_MIN_POINTS
    # All 40 starts run every step, so the kernel scored them all.
    assert sum(calls) == outcome.n_evals
    _assert_same(outcome, reference)
    assert len(outcome.attempts) == 40


class TestEarlyCancel:
    def test_racing_round_runs_one_start_at_a_time(self, monkeypatch):
        """fig2's overflow W, seed 24: start 2 samples a zero at its start
        point, start 0 only in its second step.  A racing round
        (``early_cancel`` and ``stop_at_zero``) is not stepped in
        lockstep: start 0 runs alone, its zero cancels starts 1-4 before
        they evaluate anything, and the kernel scores start 0's 32-point
        step and nothing else."""
        wd = _weak_distance("fig2", "overflow")
        n = wd.program.num_inputs
        backend = BACKENDS["random-search"]
        solo = _one_at_a_time(wd, _tasks(backend(), 24, 5, n))[0]
        assert solo[2].stopped_at_zero and solo[2].n_evals == 1
        assert solo[0].stopped_at_zero and solo[0].n_evals > 1
        reference = _one_at_a_time(wd, _tasks(backend(), 24, 5, n),
                                   early_cancel=True)
        widths, calls = [], []
        drive, evaluate_batch = parallel.drive, wd.evaluate_batch
        monkeypatch.setattr(parallel, "drive",
                            lambda searches: widths.append(len(searches))
                            or drive(searches))
        wd.evaluate_batch = lambda X: calls.append(len(X)) or evaluate_batch(X)
        outcome = run_multistart(wd, backend(), _starts(24, 5, n),
                                 record_samples=True,
                                 early_cancel=True)
        assert widths == []
        assert calls == [32]
        _assert_same(outcome, reference)
        assert outcome.attempts == [solo[0]]

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_round_without_stop_at_zero_runs_in_lockstep(self, backend,
                                                         monkeypatch):
        """``early_cancel`` cuts nothing when zeros do not stop starts,
        so such a round still runs in lockstep."""
        wd = _weak_distance("fig2", "overflow")
        n = wd.program.num_inputs
        outcome = _lockstep(wd, n, BACKENDS[backend](), 9, 5, monkeypatch,
                            early_cancel=True, stop_at_zero=False)
        reference = _one_at_a_time(
            wd, _tasks(BACKENDS[backend](), 9, 5, n, stop_at_zero=False),
            early_cancel=True,
        )
        _assert_same(outcome, reference)
        assert len(outcome.attempts) == 5


class TestOtherPaths:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_batch_fault_reruns_scalar(self, backend, monkeypatch):
        """A kernel that faults on every batch re-runs each step on the
        scalar tier; the round is unchanged.  Basinhopping's lockstep
        steps (one point per start) are narrower than the kernel's
        width, so none of them reaches the kernel."""
        wd = _weak_distance("fig2", "multiplicative")
        n = wd.program.num_inputs
        reference = _one_at_a_time(wd, _tasks(BACKENDS[backend](), 3, 3, n))
        faults = []

        def faulting_run(self, *args, **kwargs):
            faults.append(1)
            raise BatchExecutionError("injected fault")

        monkeypatch.setattr(BatchProgram, "run", faulting_run)
        outcome = _lockstep(wd, n, BACKENDS[backend](), 3, 3, monkeypatch)
        assert bool(faults) == (backend != "basinhopping")
        _assert_same(outcome, reference)

    @pytest.mark.parametrize("eval_mode", ["compiled", "interpreter"])
    def test_no_batch_support_runs_one_at_a_time(self, eval_mode,
                                                 monkeypatch):
        vec = _weak_distance("sec51-gh", "overflow")
        scalar = _weak_distance("sec51-gh", "overflow", eval_mode)
        n = vec.program.num_inputs
        backend = BACKENDS["population"]
        lockstep = _lockstep(vec, n, backend(), 4, 3, monkeypatch)
        outcome = run_multistart(scalar, backend(), _starts(4, 3, n),
                                 record_samples=True,
                                 early_cancel=False)
        _assert_same(outcome, (lockstep.attempts, lockstep.n_evals,
                               lockstep.samples))


class TestStopEvent:
    def test_set_before_the_round(self):
        """A round cancelled before it starts evaluates nothing."""
        wd = _weak_distance("fig2", "multiplicative")
        stop = threading.Event()
        stop.set()
        calls = []
        evaluate_batch = wd.evaluate_batch
        wd.evaluate_batch = lambda X: calls.append(len(X)) or evaluate_batch(X)
        outcome = run_multistart(wd, BACKENDS["population"](),
                                 _starts(1, 3, 1),
                                 record_samples=True, early_cancel=False,
                                 stop_event=stop)
        assert calls == []
        assert outcome.interrupted
        assert outcome.attempts == []
        assert outcome.n_evals == 0
        assert outcome.samples == []

    def test_set_mid_round_keeps_every_start_so_far(self, monkeypatch):
        """The event lands in the third kernel call, the round's fourth
        step (the first, one start point per start, is too narrow for
        the kernel): every start ends with its first four steps
        (1 + 32 + 32 + 32 evaluations), whose samples are a prefix of
        its uninterrupted run's."""
        wd = _weak_distance("fig2", "multiplicative")
        full = _one_at_a_time(
            wd, _tasks(BACKENDS["population"](), 2, 3, 1,
                          stop_at_zero=False)
        )
        stop = threading.Event()
        evaluate_batch = wd.evaluate_batch
        calls = []

        def stop_after_three(X):
            calls.append(len(X))
            if len(calls) == 3:
                stop.set()
            return evaluate_batch(X)

        wd.evaluate_batch = stop_after_three
        outcome = _lockstep(wd, 1, BACKENDS["population"](), 2, 3,
                            monkeypatch, stop_at_zero=False, stop_event=stop)
        assert calls == [96, 96, 96]
        assert outcome.interrupted
        assert [a.n_evals for a in outcome.attempts] == [97, 97, 97]
        assert outcome.n_evals == 291
        per_start = [full[2][i * 641:(i + 1) * 641] for i in range(3)]
        assert all(len(s) == 641 for s in per_start)
        assert outcome.samples == [x for s in per_start for x in s[:97]]
