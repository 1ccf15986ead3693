"""Cross-module integration tests: Theorem 3.3 end-to-end.

These tests exercise the full pipeline — Client program → Designer spec
→ Reduction Kernel → MO backend → verdict — against independently
computed ground truth, for several instances at once.
"""


import pytest

from repro.api import Engine, EngineConfig
from repro.fpir.builder import (
    FunctionBuilder,
    call,
    fadd,
    fmul,
    ge,
    lt,
    num,
    v,
)
from repro.fpir.program import Program
from repro.mo.scipy_backends import BasinhoppingBackend
from repro.mo.starts import uniform_sampler
from repro.programs import fig1
from repro.sat import atom, conjunction


def _detail(analysis, target, seed, backend=None, spec=None, **options):
    """One engine run's analysis-specific detail report."""
    engine = Engine(EngineConfig(seed=seed, backend=backend))
    return engine.run(analysis, target, spec=spec, **options).detail


def _assertion_program() -> Program:
    """Fig. 1(a) as a reachability target (assertion failure)."""
    return fig1.make_program_a()


class TestFig1AssertionHunt:
    def test_path_reachability_finds_the_violation(self):
        # Reach the inner `x >= 2` branch inside `x < 1`: exactly the
        # paper's motivating example.
        program = _assertion_program()
        from repro.analyses import BranchConstraint, PathSpec

        spec = PathSpec(
            [BranchConstraint("b1", True), BranchConstraint("b2", True)]
        )
        result = _detail(
            "path", program, seed=100,
            backend=BasinhoppingBackend(niter=60), spec=spec,
            n_starts=20, start_sampler=uniform_sampler(-10.0, 10.0),
        )
        assert result.verified
        x = result.x_star[0]
        assert x < 1.0 and x + 1.0 >= 2.0  # the rounding quirk
        assert x == fig1.COUNTEREXAMPLE_A

    def test_sat_instance_agrees(self):
        # Instance 5 embedding: the same fact as a formula.
        f = conjunction(
            atom("lt", v("x"), num(1.0)),
            atom("ge", fadd(v("x"), num(1.0)), num(2.0)),
        )
        result = _detail(
            "sat", f, seed=101,
            n_starts=30, start_sampler=uniform_sampler(-10.0, 10.0),
        )
        assert result.is_sat
        assert result.model["x"] == fig1.COUNTEREXAMPLE_A


class TestAnalysesAgreeOnOneProgram:
    """Run all control-flow analyses on a bespoke program and
    cross-check their findings."""

    @pytest.fixture(scope="class")
    def program(self) -> Program:
        # f(x) = sqrt(x) if x >= 4 else x*x*1e200 (overflowable)
        fb = FunctionBuilder("f", params=["x"])
        with fb.if_(ge(v("x"), num(4.0))) as big:
            fb.ret(call("sqrt", v("x")))
            with big.orelse():
                fb.let("y", fmul(v("x"), v("x")))
                fb.let("z", fmul(v("y"), num(1e200)))
                fb.ret(v("z"))
        return Program([fb.build()], entry="f")

    def test_coverage_covers_both_arms(self, program):
        report = _detail(
            "coverage", program, seed=102,
            backend=BasinhoppingBackend(niter=20),
            max_rounds=10, start_sampler=uniform_sampler(-100.0, 100.0),
        )
        assert report.coverage == 1.0

    def test_boundary_finds_the_threshold(self, program):
        report = _detail(
            "boundary", program, seed=103,
            backend=BasinhoppingBackend(niter=30),
            n_starts=6, start_sampler=uniform_sampler(-100.0, 100.0),
            max_samples=20_000,
        )
        assert (4.0,) in report.boundary_values
        assert report.sound

    def test_overflow_in_the_else_arm_only(self, program):
        report = _detail(
            "overflow", program, seed=104,
            backend=BasinhoppingBackend(niter=30), n_starts=3,
        )
        assert report.n_fp_ops == 2
        found = {f.label for f in report.findings}
        # y = x*x overflows for |x| ~ 1e154 < 4? No: the else arm
        # requires x < 4, so negative huge x reaches it; both ops can
        # overflow.
        assert found, "no overflow found at all"
        for finding in report.findings:
            assert finding.x_star[0] < 4.0  # else arm inputs


class TestNumericEndToEnd:
    @pytest.mark.slow
    def test_bessel_overflow_inputs_replay_to_nonfinite(self):
        from repro.analyses import InconsistencyChecker
        from repro.gsl import bessel

        report = _detail(
            "overflow", bessel.make_program(), seed=105,
            backend=BasinhoppingBackend(niter=25, local_maxiter=120),
            n_starts=3,
        )
        checker = InconsistencyChecker(
            bessel.make_program(),
            classifier=bessel.classify_root_cause,
        )
        findings = checker.sweep(report.inputs)
        # Overflows in val/err-producing ops surface as
        # inconsistencies (status is always SUCCESS in this routine).
        assert findings

    def test_sin_boundary_values_land_on_high_word_bounds(self):
        from repro.fp.bits import high_word
        from repro.libm import sin as glibc_sin
        from repro.mo.starts import wide_log_sampler

        report = _detail(
            "boundary", glibc_sin.make_program(), seed=106,
            backend=BasinhoppingBackend(niter=40, local_maxiter=150),
            spec=lambda s: s.function == "sin_glibc",
            n_starts=10, start_sampler=wide_log_sampler(-12.0, 10.0),
            max_samples=60_000,
        )
        assert report.boundary_values
        for (x,) in report.boundary_values[:200]:
            k = high_word(x) & 0x7FFFFFFF
            assert k in glibc_sin.K_BOUNDS
