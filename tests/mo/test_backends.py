"""MO backends: each must find (exact) zeros of simple weak distances."""


import numpy as np
import pytest

from repro.mo.base import Objective
from repro.mo.random_search import RandomSearchBackend
from repro.mo.registry import available_backends, make_backend, \
    register_backend
from repro.mo.scipy_backends import (
    BasinhoppingBackend,
    DifferentialEvolutionBackend,
    PowellBackend,
    _MagnitudeStep,
)
from repro.mo.starts import (
    gaussian_sampler,
    uniform_sampler,
    wide_log_sampler,
)
from repro.util.rng import make_rng


def _vshape(x):
    """|x - 1| * |x^2 - 4|-style multi-zero weak distance."""
    t = x[0]
    return abs(t - 1.0) * abs(t * t - 4.0)


class TestBasinhopping:
    def test_finds_exact_zero(self):
        backend = BasinhoppingBackend(niter=40)
        obj = Objective(_vshape, n_dims=1)
        result = backend.minimize(obj, (7.3,), make_rng(1))
        assert result.f_star == 0.0
        assert result.x_star[0] in (-2.0, 1.0, 2.0)

    def test_stops_at_zero(self):
        backend = BasinhoppingBackend(niter=1000)
        obj = Objective(_vshape, n_dims=1)
        result = backend.minimize(obj, (0.9,), make_rng(2))
        assert result.stopped_at_zero
        # Far fewer evaluations than 1000 basinhopping iterations need.
        assert result.n_evals < 100_000

    def test_crosses_magnitude_regimes(self):
        # Zero at 1e8: additive steps from 1.0 can't reach; the
        # magnitude-aware proposal can.
        target = 1e8
        backend = BasinhoppingBackend(niter=150)
        obj = Objective(lambda x: abs(abs(x[0]) - target), n_dims=1)
        result = backend.minimize(obj, (3.0,), make_rng(3))
        assert result.f_star <= 1.0  # within rounding of the target


class TestOtherBackends:
    def test_differential_evolution_converges(self):
        backend = DifferentialEvolutionBackend(
            bounds=((-10.0, 10.0),), maxiter=100
        )
        obj = Objective(lambda x: (x[0] - 2.0) ** 2, n_dims=1)
        result = backend.minimize(obj, (0.0,), make_rng(4))
        assert result.f_star < 1e-10

    def test_powell_finds_exact_zero(self):
        backend = PowellBackend(maxiter=100)
        obj = Objective(_vshape, n_dims=1)
        result = backend.minimize(obj, (5.0,), make_rng(5))
        assert result.f_star == 0.0

    def test_random_search_baseline(self):
        backend = RandomSearchBackend(
            n_samples=500, sampler=uniform_sampler(-10.0, 10.0)
        )
        obj = Objective(lambda x: abs(x[0]), n_dims=1,
                        stop_at_zero=False)
        result = backend.minimize(obj, (9.0,), make_rng(6))
        assert result.n_evals == 500
        assert result.f_star < 1.0  # got somewhere near, not exact

    def test_multidimensional(self):
        backend = BasinhoppingBackend(niter=60)
        obj = Objective(
            lambda x: abs(x[0] - 1.0) + abs(x[1] + 2.0), n_dims=2
        )
        result = backend.minimize(obj, (5.0, 5.0), make_rng(8))
        assert result.f_star == 0.0
        assert result.x_star == (1.0, -2.0)


class TestMagnitudeStep:
    def test_output_always_finite(self):
        step = _MagnitudeStep(make_rng(9))
        x = np.array([1e308, -1e308, 0.0, 1.0])
        for _ in range(200):
            x = step(x)
            assert np.all(np.isfinite(x))


class TestRegistry:
    def test_known_backends_listed(self):
        assert available_backends() == [
            "basinhopping", "differential_evolution", "population",
            "portfolio", "powell", "random-search",
        ]

    def test_make_backend_with_kwargs(self):
        backend = make_backend("basinhopping", niter=5)
        assert backend.niter == 5

    def test_unknown_backend(self):
        with pytest.raises(KeyError):
            make_backend("gradient-descent-from-the-future")

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError):
            register_backend("powell", PowellBackend)


class TestStartSamplers:
    def test_uniform_range(self):
        sampler = uniform_sampler(-2.0, 3.0)
        rng = make_rng(10)
        for _ in range(50):
            (x,) = sampler(rng, 1)
            assert -2.0 <= x <= 3.0

    def test_wide_log_spans_magnitudes(self):
        sampler = wide_log_sampler(-300.0, 300.0)
        rng = make_rng(11)
        mags = [abs(sampler(rng, 1)[0]) for _ in range(300)]
        assert min(mags) < 1e-100 and max(mags) > 1e100

    def test_gaussian_dimensionality(self):
        sampler = gaussian_sampler(2.0)
        assert len(sampler(make_rng(12), 4)) == 4

    def test_reproducible_with_seed(self):
        sampler = wide_log_sampler()
        a = sampler(make_rng(13), 3)
        b = sampler(make_rng(13), 3)
        assert a == b
