"""The batch protocol: Objective.absorb_batch, the drive loop, steps.

``absorb_batch`` promises to be observationally identical to calling
the objective once per point; :func:`repro.mo.base.drive` scores each
ask/tell step through it, in one kernel call when the function batches
and the step holds at least ``BATCH_MIN_POINTS`` points;
``MOBackend.steps`` is the generator every in-tree search implements.
These tests pin all three contracts.
"""

import math

import numpy as np
import pytest

from repro.mo.base import (
    BATCH_MIN_POINTS,
    MOBackend,
    Objective,
    StopMinimization,
    drive,
)
from repro.mo.population import PopulationBackend
from repro.mo.random_search import RandomSearchBackend
from repro.mo.registry import available_backends, make_backend
from repro.mo.scipy_backends import BasinhoppingBackend
from repro.mo.starts import uniform_sampler
from repro.util.rng import make_rng


def _make_pair(fn, **kwargs):
    """Two identically-configured objectives over the same function."""
    return (
        Objective(fn, n_dims=1, record_samples=True, **kwargs),
        Objective(fn, n_dims=1, record_samples=True, **kwargs),
    )


def _one_step(objective, points):
    """Drive a search that asks for ``points`` once; returns the values
    it was told (None when the objective stopped first)."""
    told = []

    def steps():
        told.append((yield [tuple(map(float, p)) for p in points]))

    drive([(objective, steps())])
    return told[0] if told else None


class _VectorizedSquare:
    """A callable with the vectorized-kernel surface WeakDistance has."""

    supports_batch = True

    def __init__(self):
        self.batch_calls = 0

    def __call__(self, xs):
        return (xs[0] - 2.0) ** 2

    def evaluate_batch(self, X):
        self.batch_calls += 1
        return (np.asarray(X)[:, 0] - 2.0) ** 2


class TestEvaluateBatch:
    """Scoring a batch: ``drive`` plus ``absorb_batch``."""

    def test_matches_sequential_calls(self):
        batch, seq = _make_pair(lambda x: abs(x[0] - 1.0),
                                stop_at_zero=False)
        points = [[0.0], [5.0], [-3.0], [1.5]]
        got = _one_step(batch, points)
        want = [seq(p) for p in points]
        assert got == want
        assert batch.n_evals == seq.n_evals == 4
        assert batch.best_x == seq.best_x
        assert batch.best_f == seq.best_f
        assert batch.samples == seq.samples

    def test_stop_mid_batch_discards_later_points(self):
        """A zero at position 2 stops both paths there: the points after
        it are never absorbed, and the search is never told."""
        fn = lambda x: max(0.0, x[0])  # noqa: E731
        batch, seq = _make_pair(fn)
        points = [[3.0], [1.0], [-1.0], [9.0], [9.0]]
        assert _one_step(batch, points) is None
        with pytest.raises(StopMinimization):
            for p in points:
                seq(p)
        assert batch.n_evals == seq.n_evals == 3
        assert batch.samples == seq.samples
        assert batch.best_f == 0.0
        # absorb_batch alone: same prefix, then StopMinimization.
        direct, _ = _make_pair(fn)
        with pytest.raises(StopMinimization):
            direct.absorb_batch(
                [tuple(p) for p in points], [fn(p) for p in points]
            )
        assert direct.samples == seq.samples

    def test_max_samples_budget_respected(self):
        batch, seq = _make_pair(lambda x: 1.0 + abs(x[0]),
                                stop_at_zero=False, max_samples=2)
        assert _one_step(batch, [[1.0], [2.0], [3.0]]) is None
        with pytest.raises(StopMinimization):
            for p in ([1.0], [2.0], [3.0]):
                seq(p)
        assert batch.n_evals == seq.n_evals == 2

    def test_vectorized_kernel_is_used(self):
        fn = _VectorizedSquare()
        obj = Objective(fn, n_dims=1, stop_at_zero=False)
        assert obj.supports_batch
        points = [[0.0], [2.0], [4.0]] + [[5.0]] * (BATCH_MIN_POINTS - 3)
        values = _one_step(obj, points)
        assert fn.batch_calls == 1
        assert values == [4.0, 0.0, 4.0] + [9.0] * (BATCH_MIN_POINTS - 3)
        assert obj.best_x == (2.0,)

    def test_single_point_stays_scalar(self):
        """A one-point step is just a call — no kernel dispatch."""
        fn = _VectorizedSquare()
        obj = Objective(fn, n_dims=1, stop_at_zero=False)
        assert _one_step(obj, [[3.0]]) == [1.0]
        assert fn.batch_calls == 0

    @pytest.mark.parametrize("n_searches", [1, 2])
    def test_width_rule(self, n_searches):
        """A step narrower than ``BATCH_MIN_POINTS`` is scored point by
        point, polling ``should_stop`` after each point; a step of
        exactly that width is one ``evaluate_batch`` call — whether one
        search asks for every point or two searches in lockstep share
        the step."""
        assert BATCH_MIN_POINTS == 32
        polls = []

        def should_stop():
            polls.append(1)
            return False

        for width, batch_calls in ((31, 0), (32, 1)):
            fn = _VectorizedSquare()
            points = [(float(k),) for k in range(width)]
            asks = [points] if n_searches == 1 else [points[:16], points[16:]]
            told = []

            def steps(ask):
                told.append((yield ask))

            del polls[:]
            objectives = [
                Objective(fn, n_dims=1, stop_at_zero=False,
                          should_stop=should_stop)
                for _ in asks
            ]
            drive([(o, steps(a)) for o, a in zip(objectives, asks)])
            assert fn.batch_calls == batch_calls
            assert [v for values in told for v in values] == [
                (k - 2.0) ** 2 for k in range(width)
            ]
            assert sum(o.n_evals for o in objectives) == width
            assert len(polls) == (width if batch_calls == 0 else n_searches)

    def test_should_stop_polled_per_point_or_per_batch(self):
        """Scored point by point, a step stops at the first point after
        which ``should_stop`` holds, as ``__call__`` does; a kernel-
        scored step polls it once, after absorbing the whole batch."""
        points = [[float(k)] for k in range(BATCH_MIN_POINTS)]
        scored = []

        def fn(x):
            scored.append(x)
            return 1.0

        scalar = Objective(fn, n_dims=1, stop_at_zero=False,
                           should_stop=lambda: len(scored) >= 2)
        assert _one_step(scalar, points) is None
        assert scalar.n_evals == len(scored) == 2
        batched = Objective(_VectorizedSquare(), n_dims=1,
                            stop_at_zero=False, should_stop=lambda: True)
        assert _one_step(batched, points) is None
        assert batched.n_evals == BATCH_MIN_POINTS

    def test_nan_sanitized_in_batch(self):
        obj = Objective(lambda x: float("nan"), n_dims=1,
                        stop_at_zero=False)
        assert _one_step(obj, [[1.0], [2.0]]) == [math.inf, math.inf]
        assert obj.absorb_batch([(3.0,)], [float("nan")]) == [math.inf]

    @pytest.mark.parametrize("batched", [False, True])
    def test_point_containers_record_identical_samples(self, batched):
        """Tuple, list and ndarray starts coerce to the same Python
        floats, so samples and results do not depend on the container
        (``steps`` hands the driver tuples of Python floats)."""
        row = (0.5, -2.0)
        starts = [
            tuple(np.float64(v) for v in row),
            list(row),
            np.array(row),
        ]
        fn = _VectorizedSquare() if batched else (lambda x: (x[0] - 2.0) ** 2)
        for backend in (
            RandomSearchBackend(n_samples=40, sampler=uniform_sampler(-1, 1)),
            PopulationBackend(n_generations=3, population=32),
            BasinhoppingBackend(niter=2, local_maxiter=3),
        ):
            results = []
            for start in starts:
                obj = Objective(fn, n_dims=2, record_samples=True,
                                stop_at_zero=False)
                result = backend.minimize(obj, start, make_rng(1))
                for xs, value in obj.samples:
                    assert all(type(v) is float for v in xs)
                    assert type(value) is float
                results.append((obj.samples, result))
            assert results[0] == results[1] == results[2]
        if batched:
            assert fn.batch_calls > 0


class TestProposeBatch:
    """Asking: ``MOBackend.steps`` and the population's proposals."""

    def test_default_raises(self):
        class Plain(MOBackend):
            name = "plain"

        with pytest.raises(NotImplementedError):
            Plain().steps((1.0,), make_rng(0))
        assert not Plain().ask_tell

    @pytest.mark.parametrize("backend", [
        RandomSearchBackend(sampler=uniform_sampler(-1.0, 1.0)),
        BasinhoppingBackend(),
        PopulationBackend(),
    ])
    def test_population_shape(self, backend):
        """Every ask is a non-empty list of 2-D tuples of Python floats."""
        assert backend.ask_tell
        steps = backend.steps((2.0, -3.0), make_rng(42))
        ask = next(steps)
        for _ in range(5):
            assert ask
            for point in ask:
                assert isinstance(point, tuple) and len(point) == 2
                assert all(type(value) is float for value in point)
            ask = steps.send([float(len(ask))] * len(ask))

    @pytest.mark.parametrize("name,ask_tell", [
        ("basinhopping", True),
        ("population", True),
        ("random-search", True),
        ("differential_evolution", False),
        ("powell", False),
        ("portfolio", False),
    ])
    def test_ask_tell(self, name, ask_tell):
        """Every in-tree search is an ask/tell generator; the SciPy black
        boxes and the portfolio take the objective as a callback."""
        assert make_backend(name).ask_tell is ask_tell

    def test_population_backend_proposals_are_finite(self):
        rng = make_rng(7)
        for x in ((0.0,), (1e308, -1e308), (-5.0, 2.0, 9.0)):
            points = PopulationBackend._propose(x, rng, 32, 0.5)
            assert len(points) == 32
            for point in points:
                assert all(math.isfinite(value) for value in point)


class TestPopulationBackend:
    def test_registered(self):
        assert "population" in available_backends()
        backend = make_backend("population", n_generations=10)
        assert isinstance(backend, PopulationBackend)
        assert backend.n_generations == 10

    def test_converges_to_a_root(self):
        backend = PopulationBackend(n_generations=200, population=16)
        obj = Objective(lambda x: abs(x[0] - 1.0) * abs(x[0] + 2.0),
                        n_dims=1)
        result = backend.minimize(obj, (40.0,), make_rng(3))
        assert result.f_star < 1e-6
        assert min(abs(result.x_star[0] - 1.0),
                   abs(result.x_star[0] + 2.0)) < 1e-3

    def test_multidimensional_descent(self):
        backend = PopulationBackend(n_generations=150, population=24)
        obj = Objective(
            lambda x: (x[0] - 1.0) ** 2 + (x[1] + 2.0) ** 2, n_dims=2
        )
        result = backend.minimize(obj, (30.0, -30.0), make_rng(5))
        assert result.f_star < 1e-4

    def test_batch_evals_match_scalar_objective_semantics(self):
        """The backend runs entirely through ask/tell steps, so its
        trajectory is identical whether the function batches or not."""
        fn = _VectorizedSquare()
        backend = PopulationBackend(n_generations=20, population=32)
        batched = Objective(fn, n_dims=1)
        scalar = Objective(lambda x: (x[0] - 2.0) ** 2, n_dims=1)
        r1 = backend.minimize(batched, (50.0,), make_rng(9))
        r2 = backend.minimize(scalar, (50.0,), make_rng(9))
        assert fn.batch_calls > 0
        assert r1.x_star == r2.x_star
        assert r1.f_star == r2.f_star
        assert r1.n_evals == r2.n_evals
