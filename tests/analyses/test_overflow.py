"""Instance 3: Algorithm 3 / fpod."""

import math

import pytest


from repro.analyses.overflow import (
    L_SET,
    PROBE_EVENT,
    overflow_spec,
)
from repro.api import Engine, EngineConfig
from repro.core.weak_distance import WeakDistance
from repro.fp.ieee import DBL_MAX
from repro.fpir.builder import FunctionBuilder, fadd, fmul, num, v
from repro.fpir.instrument import instrument
from repro.fpir.program import Program
from repro.mo.scipy_backends import BasinhoppingBackend
from repro.mo.starts import wide_log_sampler


def _overflow(program, seed, backend, **options):
    """Algorithm 3's detail report, through the engine."""
    engine = Engine(EngineConfig(seed=seed, backend=backend))
    return engine.run("overflow", program, **options).detail


def _two_squares() -> Program:
    """y = x*x; z = y*y — both overflowable (at |x| >~ 1e77 / 1e154)."""
    fb = FunctionBuilder("f", params=["x"])
    fb.let("y", fmul(v("x"), v("x")))
    fb.let("z", fmul(v("y"), v("y")))
    fb.ret(v("z"))
    return Program([fb.build()], entry="f")


def _with_constant_op() -> Program:
    """c = 2.0 * 1e-16 can never overflow; y = x + x can."""
    fb = FunctionBuilder("f", params=["x"])
    fb.let("c", fmul(num(2.0), num(1e-16)))
    fb.let("y", fadd(v("x"), v("x")))
    fb.ret(fmul(v("y"), v("c")))
    return Program([fb.build()], entry="f")


class TestWeakDistanceShape:
    def test_probe_values(self):
        wd = WeakDistance(instrument(_two_squares(), overflow_spec()))
        # No overflow: w = MAX - |z| from the *last* executed probe.
        x = 2.0
        assert wd((x,)) == DBL_MAX - 16.0
        # z overflows (|x| = 1e100 -> y = 1e200, z = inf): w == 0.
        assert wd((1e100,)) == 0.0

    def test_halt_on_zero(self):
        wd = WeakDistance(instrument(_two_squares(), overflow_spec()))
        result = wd.execute((1e200,))  # y overflows already
        assert result.halted
        assert result.events[PROBE_EVENT] == "l1"

    def test_covered_labels_silence_probes(self):
        wd = WeakDistance(instrument(_two_squares(), overflow_spec()))
        wd.label_sets.setdefault(L_SET, set()).update({"l1", "l2"})
        # All probes disabled: W returns w_init == 1.
        assert wd((1e300,)) == 1.0

    def test_last_probe_overwrites(self):
        wd = WeakDistance(instrument(_two_squares(), overflow_spec()))
        wd((3.0,))
        assert wd.last_events[PROBE_EVENT] == "l2"
        wd.label_sets[L_SET].add("l2")
        wd((3.0,))
        assert wd.last_events[PROBE_EVENT] == "l1"
        wd.label_sets[L_SET].clear()


class TestAlgorithm3:
    def test_both_ops_found(self):
        report = _overflow(
            _two_squares(), seed=20,
            backend=BasinhoppingBackend(niter=30), n_starts=3,
        )
        assert report.n_fp_ops == 2
        assert {f.label for f in report.findings} == {"l1", "l2"}
        assert report.missed == []

    def test_triggering_inputs_actually_overflow(self):
        report = _overflow(
            _two_squares(), seed=21, backend=BasinhoppingBackend(niter=30)
        )
        for finding in report.findings:
            x = finding.x_star[0]
            if finding.label == "l1":
                assert abs(x * x) >= DBL_MAX or x * x != x * x
            else:
                y = x * x
                assert not math.isfinite(y * y) or abs(y * y) >= DBL_MAX

    def test_constant_op_is_missed(self):
        report = _overflow(
            _with_constant_op(), seed=22,
            backend=BasinhoppingBackend(niter=20), n_starts=2,
        )
        missed_texts = [s.text for s in report.missed]
        assert any("2.0" in t and "1e-16" in t for t in missed_texts)

    def test_round_bound(self):
        report = _overflow(
            _two_squares(), seed=23, backend=BasinhoppingBackend(niter=10)
        )
        # Algorithm 3 terminates within nFP + 1 rounds.
        assert report.rounds <= report.n_fp_ops + 1

    @pytest.mark.slow
    def test_bessel_majority_found(self):
        from repro.gsl import bessel

        report = _overflow(
            bessel.make_program(),
            seed=24,
            backend=BasinhoppingBackend(niter=25, local_maxiter=120),
            n_starts=3,
            start_sampler=wide_log_sampler(),
        )
        assert report.n_fp_ops == 23
        # The paper triggers 21/23; allow slack for the reduced budget
        # but require a solid majority.
        assert report.n_overflows >= 15
        # The constant product 2.0 * GSL_DBL_EPSILON can never
        # overflow and must be among the misses.
        assert any(
            "2.220446049250313e-16" in s.text for s in report.missed
        )
