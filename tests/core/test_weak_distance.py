"""WeakDistance execution + the Definition 3.1 laws."""

import math

import pytest
from hypothesis import given

from repro.analyses.boundary import multiplicative_spec
from repro.core.weak_distance import WeakDistance
from repro.fpir.instrument import InstrumentationSpec, instrument
from repro.programs import fig2
from tests.conftest import finite_doubles


@pytest.fixture
def boundary_wd():
    return WeakDistance(
        instrument(fig2.make_program(), multiplicative_spec())
    )


class TestEvaluation:
    def test_known_zeros(self, boundary_wd):
        for x in (-3.0, 1.0, 2.0):
            assert boundary_wd((x,)) == 0.0

    def test_known_nonzero(self, boundary_wd):
        assert boundary_wd((0.5,)) == 0.5 * 1.75

    def test_interpreter_and_compiler_agree(self):
        instrumented = instrument(
            fig2.make_program(), multiplicative_spec()
        )
        fast = WeakDistance(instrumented, eval_mode="compiled")
        slow = WeakDistance(instrumented, eval_mode="interpreter")
        for x in (-3.0, 0.5, 1.0, 2.0, 17.25, -1e100):
            assert fast((x,)) == slow((x,))

    def test_nan_w_becomes_inf(self, boundary_wd):
        # x = inf: |x - 1| = inf, later |inf*inf - 4|*... produces
        # inf * ... — stays inf; feed NaN instead.
        assert boundary_wd((float("nan"),)) == math.inf

    def test_step_limit_returns_inf(self):
        from repro.fpir.builder import FunctionBuilder, lt, num
        from repro.fpir.program import Program

        fb = FunctionBuilder("f", params=["x"])
        with fb.while_(lt(num(0.0), num(1.0))):
            fb.let("t", num(1.0))
        fb.ret(num(0.0))
        prog = Program([fb.build()], entry="f")
        wd = WeakDistance(
            instrument(prog, InstrumentationSpec(w_init=1.0)),
            max_loop_steps=500,
        )
        assert wd((1.0,)) == math.inf


class TestDefinition31Laws:
    @given(finite_doubles)
    def test_law_a_nonnegative(self, x):
        wd = _shared_wd()
        assert wd((x,)) >= 0.0

    @given(finite_doubles)
    def test_laws_b_and_c_zero_iff_member(self, x):
        wd = _shared_wd()
        member = fig2.reference_boundary_membership(x)
        value = wd((x,))
        if value == 0.0:
            assert member, f"W({x}) == 0 but x not in S"
        if member:
            assert value == 0.0, f"x={x} in S but W(x) = {value}"

    def test_law_check_helpers(self):
        wd = _shared_wd()
        samples = [(-3.0,), (1.0,), (2.0,), (0.5,), (100.0,)]
        membership = lambda x: fig2.reference_boundary_membership(x[0])
        assert wd.check_nonnegative(samples)
        assert wd.check_zero_implies_member(samples, membership)
        assert wd.check_member_implies_zero(samples, membership)


_WD_CACHE = {}


def _shared_wd() -> WeakDistance:
    # One shared instance: hypothesis calls this many times and
    # instrument+compile per call would dominate the runtime.
    if "wd" not in _WD_CACHE:
        _WD_CACHE["wd"] = WeakDistance(
            instrument(fig2.make_program(), multiplicative_spec())
        )
    return _WD_CACHE["wd"]


class TestExactMode:
    """The §5.2 higher-precision option: exact rational evaluation."""

    @pytest.fixture(scope="class")
    def flawed_pair(self):
        # The paper's flawed designer w += x*x on `if (x == 0)`.
        from repro.fpir.builder import FunctionBuilder, eq, num, v
        from repro.fpir.nodes import Assign, BinOp, Var
        from repro.fpir.program import Program

        fb = FunctionBuilder("prog", params=["x"])
        with fb.if_(eq(v("x"), num(0.0))):
            fb.let("r", num(1.0))
        fb.ret(num(0.0))
        program = Program([fb.build()], entry="prog")

        def flawed(site, cmp):
            return [
                Assign(
                    "w",
                    BinOp("fadd", Var("w"),
                          BinOp("fmul", cmp.lhs, cmp.lhs)),
                )
            ]

        instrumented = instrument(
            program,
            InstrumentationSpec(
                w_var="w", w_init=0.0, before_compare=flawed
            ),
        )
        return (
            WeakDistance(instrumented),
            WeakDistance(instrumented, exact=True),
        )

    def test_float_mode_has_false_zero(self, flawed_pair):
        plain, _ = flawed_pair
        assert plain((1e-200,)) == 0.0  # Limitation 2

    def test_exact_mode_removes_false_zero(self, flawed_pair):
        _, exact = flawed_pair
        assert exact((1e-200,)) > 0.0

    def test_exact_mode_keeps_true_zero(self, flawed_pair):
        _, exact = flawed_pair
        assert exact((0.0,)) == 0.0

    def test_exact_agrees_on_fig2(self, boundary_wd):
        exact = WeakDistance(boundary_wd.instrumented, exact=True)
        for x in (-3.0, 0.5, 1.0, 2.0, 7.25):
            assert (exact((x,)) == 0.0) == (boundary_wd((x,)) == 0.0)


class TestReplay:
    def test_counters_are_per_replay(self):
        from repro.analyses.boundary import hits_spec, HIT_EVENT

        wd = WeakDistance(instrument(fig2.make_program(), hits_spec()))
        wd.replay((1.0,))
        _, counters = wd.replay((100.0,))  # no boundary hit
        assert not any(
            kind == HIT_EVENT for (kind, _l) in counters
        ), "counters leaked across replays"

    def test_replay_interpreter_mode(self):
        from repro.analyses.boundary import hits_spec, HIT_EVENT

        wd = WeakDistance(
            instrument(fig2.make_program(), hits_spec()),
            eval_mode="interpreter",
        )
        _, counters = wd.replay((1.0,))
        assert any(kind == HIT_EVENT for (kind, _l) in counters)
