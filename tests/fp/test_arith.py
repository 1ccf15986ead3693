"""C-semantics scalar operations (quiet inf/NaN, never raising)."""

import math

from hypothesis import given

from repro.fp import arith
from repro.fpir import externals
from tests.conftest import any_doubles, finite_doubles


class TestDivision:
    def test_positive_by_zero(self):
        assert arith.fdiv(1.0, 0.0) == math.inf

    def test_negative_by_zero(self):
        assert arith.fdiv(-1.0, 0.0) == -math.inf

    def test_positive_by_negative_zero(self):
        assert arith.fdiv(1.0, -0.0) == -math.inf

    def test_zero_by_zero_is_nan(self):
        assert math.isnan(arith.fdiv(0.0, 0.0))

    def test_nan_by_zero_is_nan(self):
        assert math.isnan(arith.fdiv(float("nan"), 0.0))

    @given(any_doubles, any_doubles)
    def test_never_raises(self, a, b):
        arith.fdiv(a, b)  # must not raise

    @given(finite_doubles, finite_doubles)
    def test_matches_python_when_defined(self, a, b):
        if b != 0.0:
            got = arith.fdiv(a, b)
            want = a / b
            assert got == want or (math.isnan(got) and math.isnan(want))


class TestLibm:
    def test_sqrt_negative_is_nan(self):
        assert math.isnan(arith.c_sqrt(-1.0))

    def test_sqrt_inf(self):
        assert arith.c_sqrt(math.inf) == math.inf

    def test_pow_overflow_positive(self):
        assert arith.c_pow(10.0, 1000.0) == math.inf

    def test_pow_overflow_negative_odd(self):
        assert arith.c_pow(-10.0, 999.0) == -math.inf

    def test_pow_negative_base_fractional_exponent(self):
        assert math.isnan(arith.c_pow(-2.0, 0.5))

    def test_pow_pole_at_zero(self):
        """A zero base with a negative finite exponent is C's pole:
        ``-inf`` only for ``-0.0`` to an odd integer power, ``+inf``
        otherwise (``math.pow`` raises there)."""
        inf = math.inf
        table = [
            (0.0, -3.0, inf),
            (-0.0, -3.0, -inf),
            (0.0, -1.0, inf),
            (-0.0, -1.0, -inf),
            (0.0, -2.0, inf),
            (-0.0, -2.0, inf),
            (0.0, -2.5, inf),
            (-0.0, -2.5, inf),
            (-0.0, -1e300, inf),
            (-0.0, -5e-324, inf),
            (-0.0, -inf, inf),
        ]
        for x, y, want in table:
            assert arith.c_pow(x, y) == want, (x, y)

    def test_exp_overflow(self):
        assert arith.c_exp(1000.0) == math.inf

    def test_log_zero(self):
        assert arith.c_log(0.0) == -math.inf

    def test_log_negative_is_nan(self):
        assert math.isnan(arith.c_log(-1.0))

    def test_trig_of_inf_is_nan(self):
        assert math.isnan(arith.c_sin(math.inf))
        assert math.isnan(arith.c_cos(-math.inf))
        assert math.isnan(arith.c_tan(math.inf))

    def test_floor_special(self):
        assert arith.c_floor(math.inf) == math.inf
        assert math.isnan(arith.c_floor(float("nan")))
        assert arith.c_floor(2.7) == 2.0
        assert arith.c_floor(-2.1) == -3.0

    def test_fabs_negative_zero(self):
        assert math.copysign(1.0, externals.lookup("fabs")(-0.0)) == 1.0

    def test_fabs_clears_the_sign_of_nan(self):
        got = externals.lookup("fabs")(-math.nan)
        assert math.isnan(got) and math.copysign(1.0, got) == 1.0

    def test_fabs_keeps_an_int_an_int(self):
        got = externals.lookup("fabs")(-3)
        assert got == 3 and type(got) is int

    def test_ldexp_overflow_keeps_sign(self):
        assert arith.c_ldexp(-1.5, 5000) == -math.inf

    @given(finite_doubles)
    def test_sin_matches_math(self, x):
        assert arith.c_sin(x) == math.sin(x)
