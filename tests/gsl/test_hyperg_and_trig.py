"""The hypergeometric and trig ports."""

import math
import struct

import pytest
from hypothesis import given, strategies as st

from repro.fpir import assign_labels, compile_program, normalize_program
from repro.fpir.program import Program
from repro.gsl import hyperg, trig
from repro.gsl.machine import GSL_EDOM, GSL_SUCCESS


@pytest.fixture(scope="module")
def compiled_hyperg():
    return compile_program(hyperg.make_program())


NAN = float("nan")

#: Argument pairs equal as floats but not as bits, and NaN arguments.
#: ``(-3.0, 1.0, ±0.0)`` has value ``±0.0``, so a memo keyed by float
#: equality alone serves the wrong sign.
SERIES_PAIRS = [
    ((3.0, 1.0, 0.0), (3.0, 1.0, -0.0)),
    ((-3.0, 1.0, 0.0), (-3.0, 1.0, -0.0)),
    ((0.0, 1.0, 2.0), (-0.0, 1.0, 2.0)),
    ((NAN, 1.0, 2.0), (-NAN, 1.0, 2.0)),
    ((1.5, NAN, 3.0), (1.5, 0.5, NAN)),
]


def _bits(value):
    return struct.pack("<d", value)


@pytest.fixture(scope="module")
def compiled_cos():
    functions = trig.build_trig_functions()
    prog = Program(
        functions,
        entry="gsl_sf_cos_e",
        globals=trig.trig_globals(),
        arrays=trig.trig_arrays(),
    )
    return compile_program(prog)


class TestHyperg:
    def test_exactly_8_elementary_ops(self):
        index = assign_labels(normalize_program(hyperg.make_program()))
        assert len(index.fp_ops) == hyperg.PAPER_OP_COUNT

    def test_series_leading_terms(self, compiled_hyperg):
        # 2F0(a, b; x) = 1 + a*b*x + O(x^2) for small |x|.
        a, b, x = 0.1, 0.2, -1e-4
        got = compiled_hyperg.run([a, b, x]).globals["result_val"]
        assert got == pytest.approx(1.0 + a * b * x, abs=1e-6)

    def test_x_zero_is_one(self, compiled_hyperg):
        g = compiled_hyperg.run([1.0, 2.0, 0.0]).globals
        assert g["result_val"] == 1.0
        assert g["status"] == GSL_SUCCESS

    def test_positive_x_domain_error(self, compiled_hyperg):
        g = compiled_hyperg.run([1.0, 2.0, 0.5]).globals
        assert g["status"] == GSL_EDOM

    def test_paper_table5_input_is_inconsistent(self, compiled_hyperg):
        g = compiled_hyperg.run([-6.2e2, -3.7e2, -1.5e2]).globals
        assert g["status"] == GSL_SUCCESS
        assert not math.isfinite(g["result_val"])

    def test_signed_zero_series_differ(self):
        value = [hyperg._hyperg_U_series(-3.0, 1.0, x)[0] for x in (0.0, -0.0)]
        assert _bits(value[0]) != _bits(value[1])

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("pair", SERIES_PAIRS)
    def test_externals_match_a_fresh_series(self, pair, swap):
        """``__hyperg_U_val``/``__hyperg_U_err`` share one series per
        evaluation; interleaved in every order, each call still returns
        what an unmemoized series returns, bit for bit."""
        first, second = reversed(pair) if swap else pair
        calls = [(args, 0) for args in (first, second, first)]
        calls += [(first, 1), (second, 1), (second, 0), (second, 1), (first, 1)]
        calls += [(first, 0), (first, 1), (second, 0), (first, 0)]
        for args, which in calls:
            external = (hyperg._u_val, hyperg._u_err)[which]
            fresh = hyperg._hyperg_U_series(*args)[which]
            assert _bits(external(*args)) == _bits(fresh), (args, which)

    def test_one_series_per_evaluation(self, compiled_hyperg, monkeypatch):
        series = hyperg._hyperg_U_series
        calls = []
        monkeypatch.setattr(hyperg, "_last_series", (None, None))
        monkeypatch.setattr(
            hyperg, "_hyperg_U_series", lambda *a: calls.append(a) or series(*a)
        )
        for x in (-0.25, -0.5, -0.25):
            compiled_hyperg.run([1.5, 0.5, x])
        assert len(calls) == 3

    def test_classifier_pow_vs_mul(self):
        assert hyperg.classify_root_cause(
            (-620.0, -370.0, -150.0), 0, math.inf, math.inf
        ) == "Large exponent of pow"
        assert hyperg.classify_root_cause(
            (2.0, 2.0, -1.0), 0, math.inf, math.inf
        ) == "Large operands of *"


class TestCosPort:
    @given(x=st.floats(min_value=-50.0, max_value=50.0))
    def test_accuracy_on_sane_range(self, x, compiled_cos):
        got = compiled_cos.run([x]).value
        assert got == pytest.approx(math.cos(x), abs=1e-9)

    def test_tiny_argument_path(self, compiled_cos):
        x = 1e-10
        assert compiled_cos.run([x]).value == pytest.approx(
            1.0, abs=1e-15
        )

    def test_status_is_always_success(self, compiled_cos):
        # No large-argument guard — exactly like GSL (the bug).
        for x in (1.0, 1e20, -8.11e50):
            assert compiled_cos.run([x]).globals["cos_status"] == \
                GSL_SUCCESS

    def test_huge_argument_produces_garbage_quietly(self, compiled_cos):
        value = compiled_cos.run([-8.11e50]).value
        assert not (-1.0 <= value <= 1.0)

    def test_reduction_collapse_threshold(self, compiled_cos):
        # Reduction is fine at 1e8 but has collapsed by 1e50.
        fine = compiled_cos.run([1e8]).value
        assert -1.0 <= fine <= 1.0
