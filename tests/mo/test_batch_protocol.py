"""The batch protocol: Objective.evaluate_batch and propose_batch.

``evaluate_batch`` promises to be observationally identical to calling
the objective once per point, and ``propose_batch`` is the population
verb batch-native backends implement.  These tests pin both contracts.
"""

import math

import numpy as np
import pytest

from repro.mo.base import MOBackend, Objective, StopMinimization
from repro.mo.mcmc import PurePythonBasinhopping
from repro.mo.population import PopulationBackend
from repro.mo.random_search import RandomSearchBackend
from repro.mo.registry import available_backends, make_backend
from repro.mo.starts import uniform_sampler
from repro.util.rng import make_rng


def _make_pair(fn, **kwargs):
    """Two identically-configured objectives over the same function."""
    return (
        Objective(fn, n_dims=1, record_samples=True, **kwargs),
        Objective(fn, n_dims=1, record_samples=True, **kwargs),
    )


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
    def test_matches_sequential_calls(self):
        batch, seq = _make_pair(lambda x: abs(x[0] - 1.0),
                                stop_at_zero=False)
        points = [[0.0], [5.0], [-3.0], [1.5]]
        got = batch.evaluate_batch(points)
        want = [seq(p) for p in points]
        assert got == want
        assert batch.n_evals == seq.n_evals == 4
        assert batch.best_x == seq.best_x
        assert batch.best_f == seq.best_f
        assert batch.samples == seq.samples

    def test_stop_mid_batch_discards_later_points(self):
        """A zero at position 2 stops both paths there: the points after
        it are never absorbed."""
        fn = lambda x: max(0.0, x[0])  # noqa: E731
        batch, seq = _make_pair(fn)
        points = [[3.0], [1.0], [-1.0], [9.0], [9.0]]
        with pytest.raises(StopMinimization):
            batch.evaluate_batch(points)
        with pytest.raises(StopMinimization):
            for p in points:
                seq(p)
        assert batch.n_evals == seq.n_evals == 3
        assert batch.samples == seq.samples
        assert batch.best_f == 0.0

    def test_max_samples_budget_respected(self):
        batch, seq = _make_pair(lambda x: 1.0 + abs(x[0]),
                                stop_at_zero=False, max_samples=2)
        with pytest.raises(StopMinimization):
            batch.evaluate_batch([[1.0], [2.0], [3.0]])
        with pytest.raises(StopMinimization):
            for p in ([1.0], [2.0], [3.0]):
                seq(p)
        assert batch.n_evals == seq.n_evals == 2

    def test_vectorized_kernel_is_used(self):
        fn = _VectorizedSquare()
        obj = Objective(fn, n_dims=1, stop_at_zero=False)
        assert obj.supports_batch
        values = obj.evaluate_batch([[0.0], [2.0], [4.0]])
        assert fn.batch_calls == 1
        assert values == [4.0, 0.0, 4.0]
        assert obj.best_x == (2.0,)

    def test_single_point_stays_scalar(self):
        """A size-one batch is just a call — no kernel dispatch."""
        fn = _VectorizedSquare()
        obj = Objective(fn, n_dims=1, stop_at_zero=False)
        assert obj.evaluate_batch([[3.0]]) == [1.0]
        assert fn.batch_calls == 0

    def test_nan_sanitized_in_batch(self):
        obj = Objective(lambda x: float("nan"), n_dims=1,
                        stop_at_zero=False)
        assert obj.evaluate_batch([[1.0], [2.0]]) == [math.inf, math.inf]

    @pytest.mark.parametrize("batched", [False, True])
    def test_point_containers_record_identical_samples(self, batched):
        """Tuple, list and ndarray populations coerce to the same Python
        floats, so samples and values do not depend on the container."""
        rows = [(0.5, -2.0), (3.0, 1e300), (-0.0, 7.25)]
        populations = [
            [tuple(np.float64(v) for v in row) for row in rows],
            [list(row) for row in rows],
            np.array(rows),
        ]
        fn = _VectorizedSquare() if batched else (lambda x: (x[0] - 2.0) ** 2)
        results = []
        for population in populations:
            obj = Objective(fn, n_dims=2, record_samples=True,
                            stop_at_zero=False)
            values = obj.evaluate_batch(population)
            assert all(type(v) is float for v in values)
            for xs, _ in obj.samples:
                assert all(type(v) is float for v in xs)
            results.append((values, obj.samples, obj.best_x))
        assert results[0] == results[1] == results[2]
        if batched:
            assert fn.batch_calls == len(populations)


class TestProposeBatch:
    def test_default_raises(self):
        class Plain(MOBackend):
            name = "plain"

        with pytest.raises(NotImplementedError):
            Plain().propose_batch((1.0,), make_rng(0), 4)

    @pytest.mark.parametrize("backend", [
        RandomSearchBackend(sampler=uniform_sampler(-1.0, 1.0)),
        PurePythonBasinhopping(),
        PopulationBackend(),
    ])
    def test_population_shape(self, backend):
        pop = backend.propose_batch((2.0, -3.0), make_rng(42), 16)
        assert len(pop) == 16
        for point in pop:
            assert isinstance(point, tuple) and len(point) == 2
            assert all(isinstance(value, float) for value in point)

    def test_population_backend_proposals_are_finite(self):
        backend = PopulationBackend()
        rng = make_rng(7)
        for x in ((0.0,), (1e308, -1e308), (-5.0, 2.0, 9.0)):
            for point in backend.propose_batch(x, rng, 32, scale=0.5):
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
        """The backend runs entirely through evaluate_batch, so its
        trajectory is identical whether the function batches or not."""
        fn = _VectorizedSquare()
        backend = PopulationBackend(n_generations=20, population=8)
        batched = Objective(fn, n_dims=1)
        scalar = Objective(lambda x: (x[0] - 2.0) ** 2, n_dims=1)
        r1 = backend.minimize(batched, (50.0,), make_rng(9))
        r2 = backend.minimize(scalar, (50.0,), make_rng(9))
        assert fn.batch_calls > 0
        assert r1.x_star == r2.x_star
        assert r1.f_star == r2.f_star
        assert r1.n_evals == r2.n_evals
