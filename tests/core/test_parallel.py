"""The process-pool multi-start engine (repro.core.parallel)."""

import pickle

import pytest

from repro.analyses import ReductionAnalysis
from repro.analyses.boundary import multiplicative_spec
from repro.analyses.overflow import overflow_spec
from repro.api import Engine, EngineConfig
from repro.core import AnalysisProblem, WorkerCrashError, WorkerPool
from repro.core.parallel import run_multistart
from repro.core.weak_distance import WeakDistance
from repro.fpir.builder import FunctionBuilder, eq, fmul, gt, num, v
from repro.fpir.instrument import InstrumentationSpec, instrument
from repro.fpir.nodes import Assign, BinOp, Const, Var
from repro.fpir.program import Program
from repro.mo.base import MOBackend
from repro.mo.random_search import RandomSearchBackend
from repro.mo.starts import uniform_sampler, wide_log_sampler
from repro.programs import fig2
from repro.util.rng import derive_round_rngs


def _equality_program(target: float = 7.0) -> Program:
    """A program whose multiplicative boundary W is |x - target|."""
    fb = FunctionBuilder("prog", params=["x"])
    with fb.if_(eq(v("x"), num(target))):
        fb.let("reached", num(1.0))
    fb.ret(num(0.0))
    return Program([fb.build()], entry="prog")


def _square_plus_one_spec() -> InstrumentationSpec:
    """A designer whose W = x*x + 1 is strictly positive (empty S)."""

    def hook(site, cmp):
        sq = BinOp("fmul", Var("x"), Var("x"))
        return [Assign("w", BinOp("fadd", sq, Const(1.0)))]

    return InstrumentationSpec(w_var="w", w_init=1.0, before_compare=hook)


class PlantedSampler:
    """Start sampler that occasionally plants the exact zero of
    ``|x - 7|`` and otherwise starts far away."""

    def __call__(self, rng, n_dims):
        if rng.random() < 0.25:
            return (7.0,)
        return (float(rng.uniform(1e5, 1e6)),)


class CrashBackend(MOBackend):
    """A backend that dies mid-minimization."""

    name = "crash"

    def minimize(self, objective, start, rng):
        raise ValueError("backend exploded")


def _first_planted_index(seed, n_starts):
    sampler = PlantedSampler()
    for i, rng in enumerate(derive_round_rngs(seed, 0, n_starts)):
        if sampler(rng, 1) == (7.0,):
            return i
    return None


class TestPayload:
    def test_pickle_round_trip_of_instrumented_program(self):
        instrumented = instrument(
            fig2.make_program(), multiplicative_spec()
        )
        clone = pickle.loads(pickle.dumps(instrumented))
        # Hooks are dropped in transit; the plain-data fields survive.
        assert clone.spec.before_compare is None
        assert clone.spec.w_var == instrumented.spec.w_var
        assert clone.spec.w_init == instrumented.spec.w_init
        original = WeakDistance(instrumented)
        rebuilt = WeakDistance(clone)
        for x in [(0.5,), (1.0,), (-3.0,), (1e8,), (2.0,)]:
            assert original(x) == rebuilt(x)

    def test_hook_stripped_spec_rejected_by_instrument(self):
        spec = pickle.loads(pickle.dumps(multiplicative_spec()))
        assert spec.hooks_dropped
        with pytest.raises(ValueError, match="lost its hooks"):
            instrument(fig2.make_program(), spec)

    def test_payload_round_trip_is_label_free(self):
        """A pickled W carries the program and its execution settings,
        never runtime label state (the pool ships that per task) nor
        compiled code or the last run's events."""
        instrumented = instrument(fig2.make_program(), overflow_spec())
        weak_distance = WeakDistance(
            instrumented, max_loop_steps=123, eval_mode="interpreter"
        )
        weak_distance((0.5,))
        weak_distance.label_sets["L"].add("covered-in-parent")
        blob = pickle.dumps(weak_distance)
        rebuilt = pickle.loads(blob)
        assert b"covered-in-parent" not in blob
        assert rebuilt.label_sets["L"] == set()
        assert rebuilt.last_events == {}
        assert rebuilt.max_loop_steps == 123
        assert rebuilt.eval_mode == "interpreter"
        assert not rebuilt.use_compiler
        for x in [(0.5,), (1.0,), (-3.0,)]:
            assert rebuilt(x) == WeakDistance(instrumented)(x)


def _starts(seed, n_starts, sampler):
    return [(sampler(rng, 1), rng) for rng in derive_round_rngs(seed, 0, n_starts)]


class TestVerdictEquivalence:
    """n_workers=4 must reproduce the serial run (same seed)."""

    def _reports(self, problem, spec, backend=None, sampler=None, **options):
        reports = []
        for n_workers in (1, 4):
            config = EngineConfig(
                seed=1,
                n_workers=n_workers,
                backend=backend
                or RandomSearchBackend(
                    n_samples=400,
                    sampler=wide_log_sampler(-4.0, 4.0),
                ),
                n_starts=4,
                start_sampler=sampler,
            )
            reports.append(
                Engine(config).run(ReductionAnalysis, problem, spec=spec, **options)
            )
        serial, parallel = reports
        # The session's rounds do not race, so the pooled run is
        # bit-identical to the serial one, not just verdict-identical.
        assert serial.verdict == parallel.verdict
        assert serial.findings == parallel.findings
        assert [(t.n_evals, t.best_w) for t in serial.trace] == [
            (t.n_evals, t.best_w) for t in parallel.trace
        ]
        assert serial.n_evals == parallel.n_evals
        assert serial.samples == parallel.samples
        assert (serial.n_workers, parallel.n_workers) == (1, 4)
        return reports

    def test_found_problem(self):
        from repro.mo.scipy_backends import BasinhoppingBackend

        problem = AnalysisProblem(
            fig2.make_program(),
            membership=lambda x: fig2.reference_boundary_membership(x[0]),
        )
        serial, parallel = self._reports(
            problem,
            multiplicative_spec(),
            backend=BasinhoppingBackend(niter=40),
            sampler=uniform_sampler(-50.0, 50.0),
        )
        assert serial.verdict == parallel.verdict == "found"
        assert serial.detail.best.f_star == parallel.detail.best.f_star == 0.0

    def test_not_found_problem_matches_exactly(self):
        problem = AnalysisProblem(_equality_program())
        serial, parallel = self._reports(
            problem,
            _square_plus_one_spec(),
            sampler=uniform_sampler(-50.0, 50.0),
        )
        assert serial.verdict == parallel.verdict == "not-found"
        # Every start runs its full deterministic trajectory on both
        # paths, so the minima and the evaluation counts agree exactly.
        assert serial.detail.best.f_star == parallel.detail.best.f_star
        assert serial.n_evals == parallel.n_evals

    def test_parallel_merges_recorded_samples_in_start_order(self):
        weak_distance = WeakDistance(
            instrument(_equality_program(), _square_plus_one_spec())
        )
        backend = RandomSearchBackend(
            n_samples=400, sampler=wide_log_sampler(-4.0, 4.0)
        )

        def starts():
            return _starts(1, 4, uniform_sampler(-50.0, 50.0))

        serial = run_multistart(
            weak_distance, backend, starts(), record_samples=True
        )
        with WorkerPool(4) as pool:
            parallel = run_multistart(
                weak_distance, backend, starts(), record_samples=True, pool=pool
            )
        assert serial.samples
        assert serial.samples == parallel.samples


class TestEarlyCancel:
    def test_zero_found_cancels_other_starts(self):
        n_starts, budget = 4, 200_000
        seed = next(
            s
            for s in range(100)
            if _first_planted_index(s, n_starts) is not None
        )
        weak_distance = WeakDistance(
            instrument(_equality_program(), multiplicative_spec())
        )
        backend = RandomSearchBackend(
            n_samples=budget,
            sampler=uniform_sampler(1e5, 1e6),
        )
        starts = _starts(seed, n_starts, PlantedSampler())
        with WorkerPool(n_starts) as pool:
            outcome = run_multistart(weak_distance, backend, starts, pool=pool)
        assert outcome.best.f_star == 0.0
        assert outcome.best.x_star == (7.0,)
        # The planted start wins after one evaluation and cancels the
        # race; the others stop far short of their budgets.
        assert outcome.n_evals < 0.25 * n_starts * budget

    def test_serial_path_unaffected_by_planted_budget(self):
        # Sanity: an unlucky-only serial start burns its full budget.
        weak_distance = WeakDistance(
            instrument(_equality_program(), multiplicative_spec())
        )
        backend = RandomSearchBackend(
            n_samples=500, sampler=uniform_sampler(1e5, 1e6)
        )
        starts = _starts(3, 2, uniform_sampler(1e5, 1e6))
        outcome = run_multistart(weak_distance, backend, starts)
        assert outcome.best.f_star > 0.0
        assert outcome.n_evals == 2 * 500


class TestWorkerCrash:
    def test_crash_is_surfaced_with_start_index(self):
        weak_distance = WeakDistance(
            instrument(_equality_program(), multiplicative_spec())
        )
        starts = _starts(1, 3, uniform_sampler(-1.0, 1.0))
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerCrashError) as excinfo:
                run_multistart(weak_distance, CrashBackend(), starts, pool=pool)
        assert 0 <= excinfo.value.start_index < 3
        assert "backend exploded" in str(excinfo.value)

    def test_kill_heals_with_serial_parity(self, tmp_path):
        from repro.testing import KillWorkerOnceBackend

        def chaos():
            return KillWorkerOnceBackend(
                tmp_path / "killed",
                inner=RandomSearchBackend(
                    n_samples=40, sampler=uniform_sampler(10.0, 20.0)
                ),
            )

        weak_distance = WeakDistance(
            instrument(_equality_program(), multiplicative_spec())
        )

        def starts():
            # Fresh generators per run: the serial path advances them
            # in-process, so sharing one list would skew the replay.
            return _starts(5, 6, uniform_sampler(10.0, 20.0))

        serial = run_multistart(
            weak_distance, chaos(), starts(), early_cancel=False,
        )
        with WorkerPool(2) as pool:
            healed = run_multistart(
                weak_distance, chaos(), starts(), early_cancel=False, pool=pool,
            )
        assert (tmp_path / "killed").exists()
        assert healed.n_crash_retries >= 1
        assert [r.x_star for r in serial.attempts] == [
            r.x_star for r in healed.attempts
        ]
        assert serial.n_evals == healed.n_evals


class TestPooledStopEvent:
    def test_pooled_round_observes_pre_set_stop_event(self):
        """A pooled round honors job cancellation too: a pre-set stop
        event withdraws queued starts and marks the outcome
        interrupted instead of running the round to the end."""
        import threading

        weak_distance = WeakDistance(
            instrument(_equality_program(), multiplicative_spec())
        )
        backend = RandomSearchBackend(
            n_samples=20_000, sampler=uniform_sampler(10.0, 20.0)
        )
        starts = _starts(3, 8, uniform_sampler(10.0, 20.0))
        stop = threading.Event()
        stop.set()
        with WorkerPool(2) as pool:
            outcome = run_multistart(
                weak_distance, backend, starts,
                early_cancel=False, stop_event=stop, pool=pool,
            )
        assert outcome.interrupted
        assert len(outcome.attempts) < 8


class StopBeforeEvaluating(MOBackend):
    """Cancels the job, then gives up without evaluating anything."""

    name = "stop-first"

    def __init__(self, stop):
        self.stop = stop

    def minimize(self, objective, start, rng):
        self.stop.set()
        return objective.result(self.name)  # never evaluated: raises


class TestSerialStopEvent:
    def test_start_cancelled_before_first_evaluation_counts(self):
        """A start cancelled between the pre-check and its first
        evaluation counts in ``n_cancelled`` on the serial path, as it
        does in the pool, and no later start runs."""
        import threading

        weak_distance = WeakDistance(
            instrument(_equality_program(), multiplicative_spec())
        )
        stop = threading.Event()
        starts = [
            (uniform_sampler(10.0, 20.0)(rng, 1), rng)
            for rng in derive_round_rngs(3, 0, 3)
        ]
        outcome = run_multistart(
            weak_distance, StopBeforeEvaluating(stop), starts,
            early_cancel=False, stop_event=stop,
        )
        assert outcome.interrupted
        assert outcome.attempts == []
        assert outcome.n_evals == 0
        assert outcome.n_cancelled == 1


class TestLabelSetMerge:
    """Algorithm 3-style stateful runs keep converging in parallel."""

    def _overflow_distance(self):
        fb = FunctionBuilder("prog", params=["x"])
        fb.let("t", fmul(v("x"), v("x")))
        with fb.if_(gt(v("t"), num(0.0))):
            fb.let("u", fmul(v("t"), v("t")))
        fb.ret(v("t"))
        program = Program([fb.build()], entry="prog")
        return WeakDistance(instrument(program, overflow_spec()))

    def _minimize(self, weak_distance, n_workers, covered):
        """The best attempt of one racing round, serial for
        ``n_workers=1``, else on a pool of that many workers."""
        weak_distance.label_sets["L"] = set(covered)
        backend = RandomSearchBackend(
            n_samples=300, sampler=wide_log_sampler(100.0, 308.0)
        )
        starts = _starts(11, 3, wide_log_sampler(100.0, 308.0))
        if n_workers == 1:
            return run_multistart(weak_distance, backend, starts).best
        with WorkerPool(n_workers) as pool:
            return run_multistart(weak_distance, backend, starts, pool=pool).best

    def test_covered_labels_respected_and_merged(self):
        serial_wd = self._overflow_distance()
        labels = sorted(
            site.label for site in serial_wd.instrumented.index.fp_ops
        )
        assert len(labels) == 2
        serial = self._minimize(serial_wd, 1, covered=[labels[0]])

        parallel_wd = self._overflow_distance()
        parallel = self._minimize(parallel_wd, 3, covered=[labels[0]])

        assert (serial.f_star == 0.0) == (parallel.f_star == 0.0)
        # The pre-covered label survives the round trip and the merge.
        assert parallel_wd.label_sets["L"] >= {labels[0]}
        assert parallel_wd.label_sets["L"] == serial_wd.label_sets["L"]

    def test_fully_covered_set_forces_not_found(self):
        weak_distance = self._overflow_distance()
        labels = [
            site.label
            for site in weak_distance.instrumented.index.fp_ops
        ]
        best = self._minimize(weak_distance, 3, covered=labels)
        # Every probe is suppressed, so W stays at w_init == 1: no zero.
        assert best.f_star == 1.0


class TestRoundsKeepLabelSets:
    """A round reads the label sets and never writes them: Algorithm
    3's ``L`` grows between rounds only, which is what lets every
    round path drop label state from its outcome."""

    @pytest.mark.parametrize("path", ["one-at-a-time", "lockstep", "pooled"])
    def test_round_leaves_label_sets_as_found(self, path, monkeypatch):
        from repro.core import parallel
        from repro.mo.population import PopulationBackend
        from repro.programs.suite import get_program

        eval_mode = "vectorized" if path == "lockstep" else "compiled"
        weak_distance = WeakDistance(
            instrument(get_program("gsl-bessel"), overflow_spec()),
            eval_mode=eval_mode,
        )
        labels = sorted(
            site.label for site in weak_distance.instrumented.index.fp_ops
        )
        covered = weak_distance.label_sets["L"]
        covered.update(labels[::2])
        before = {name: set(s) for name, s in weak_distance.label_sets.items()}
        n = weak_distance.program.num_inputs
        starts = [
            (wide_log_sampler(-4.0, 4.0)(rng, n), rng)
            for rng in derive_round_rngs(2, 0, 4)
        ]
        widths = []
        drive = parallel.drive
        monkeypatch.setattr(
            parallel,
            "drive",
            lambda searches: widths.append(len(searches)) or drive(searches),
        )
        backend = PopulationBackend(n_generations=10)
        if path == "pooled":
            with WorkerPool(2) as pool:
                outcome = run_multistart(
                    weak_distance, backend, starts, early_cancel=False, pool=pool,
                )
        else:
            outcome = run_multistart(
                weak_distance, backend, starts, early_cancel=False,
            )
        assert len(outcome.attempts) == 4
        assert widths == ([4] if path == "lockstep" else [])
        assert weak_distance.label_sets == before
        assert weak_distance.label_sets["L"] is covered


class TestRunMultistartDirect:
    def test_reports_in_start_order_and_counts_evals(self):
        weak_distance = WeakDistance(
            instrument(_equality_program(), multiplicative_spec())
        )
        rngs = derive_round_rngs(5, 0, 3)
        sampler = uniform_sampler(10.0, 20.0)
        starts = [(sampler(rng, 1), rng) for rng in rngs]
        with WorkerPool(2) as pool:
            outcome = run_multistart(
                weak_distance,
                backend=RandomSearchBackend(
                    n_samples=50, sampler=uniform_sampler(10.0, 20.0)
                ),
                starts=starts,
                pool=pool,
            )
        assert len(outcome.attempts) == 3
        assert outcome.n_evals == 3 * 50
        assert outcome.n_cancelled == 0
        assert all(r.f_star > 0.0 for r in outcome.attempts)
