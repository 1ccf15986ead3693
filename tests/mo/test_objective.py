"""The Objective wrapper: bookkeeping, sanitization, termination."""

import math

import pytest

from repro.mo.base import Objective, StopMinimization


class TestSanitization:
    def test_nan_becomes_inf(self):
        obj = Objective(lambda x: float("nan"), n_dims=1,
                        stop_at_zero=False)
        assert obj([1.0]) == math.inf

    def test_plain_value_passes_through(self):
        obj = Objective(lambda x: x[0] * 2.0, n_dims=1,
                        stop_at_zero=False)
        assert obj([3.0]) == 6.0

    def test_scalar_input_accepted(self):
        obj = Objective(lambda x: x[0], n_dims=1, stop_at_zero=False)
        assert obj(5.0) == 5.0  # numpy scalars from SciPy


class TestBestTracking:
    def test_best_across_evaluations(self):
        obj = Objective(lambda x: abs(x[0] - 3.0), n_dims=1,
                        stop_at_zero=False)
        for t in (0.0, 5.0, 2.5, 4.0):
            obj([t])
        assert obj.best_x == (2.5,)
        assert obj.best_f == 0.5

    def test_result_packaging(self):
        obj = Objective(lambda x: abs(x[0]), n_dims=1,
                        stop_at_zero=False)
        obj([2.0])
        result = obj.result("test-backend")
        assert result.backend == "test-backend"
        assert result.n_evals == 1
        assert not result.stopped_at_zero

    def test_result_before_any_eval_raises(self):
        obj = Objective(lambda x: 0.0, n_dims=1)
        with pytest.raises(RuntimeError):
            obj.result("b")


class TestTermination:
    def test_stop_at_zero(self):
        # "if a minimum 0 is reached, MO should stop" (Section 4.4).
        obj = Objective(lambda x: max(0.0, x[0]), n_dims=1)
        obj([5.0])
        with pytest.raises(StopMinimization):
            obj([-1.0])
        assert obj.best_f == 0.0

    def test_max_samples_budget(self):
        obj = Objective(lambda x: 1.0, n_dims=1, stop_at_zero=False,
                        max_samples=3)
        obj([1.0])
        obj([2.0])
        with pytest.raises(StopMinimization):
            obj([3.0])

    def test_sample_recording(self):
        obj = Objective(lambda x: x[0], n_dims=1, record_samples=True,
                        stop_at_zero=False)
        obj([1.0])
        obj([2.0])
        assert obj.samples == [((1.0,), 1.0), ((2.0,), 2.0)]

    def test_no_recording_by_default(self):
        obj = Objective(lambda x: x[0], n_dims=1, stop_at_zero=False)
        obj([1.0])
        assert obj.samples == []


class TestNeverFinite:
    """A run whose every sample is inf (or NaN) still has a result."""

    def test_first_point_is_kept(self):
        obj = Objective(lambda x: math.inf, n_dims=1, stop_at_zero=False)
        obj([2.0])
        obj([3.0])
        assert obj.best_x == (2.0,)
        assert obj.result("b").f_star == math.inf

    def test_nan_only_run_has_a_result(self):
        obj = Objective(lambda x: float("nan"), n_dims=1,
                        stop_at_zero=False)
        obj([4.0])
        result = obj.result("b")
        assert result.x_star == (4.0,)
        assert result.f_star == math.inf
        assert not result.stopped_at_zero

    def test_basinhopping_on_an_all_inf_half_line(self):
        from repro.mo.scipy_backends import BasinhoppingBackend
        from repro.util.rng import make_rng

        # Every sample of this run lands on the inf half-line.
        obj = Objective(
            lambda x: math.inf if x[0] > 0 else 1 + x[0] ** 2,
            n_dims=1,
            stop_at_zero=False,
            max_samples=3000,
        )
        result = BasinhoppingBackend(niter=20).minimize(
            obj, (6.771296247390712,), make_rng(4)
        )
        assert result.n_evals == 3000
        assert result.f_star == math.inf
        assert result.x_star == (6.771296247390712,)
