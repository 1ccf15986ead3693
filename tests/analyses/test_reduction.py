"""Algorithm 2 end-to-end: ReductionAnalysis through the engine."""

import numpy as np
import pytest

from repro.analyses import ReductionAnalysis
from repro.analyses.boundary import multiplicative_spec
from repro.api import Engine, EngineConfig, available_analyses
from repro.core import AnalysisProblem
from repro.fpir.builder import FunctionBuilder, call, eq, gt, num, v
from repro.fpir.instrument import InstrumentationSpec
from repro.fpir.nodes import Assign, BinOp, Const, Var
from repro.fpir.program import Program
from repro.mo.scipy_backends import BasinhoppingBackend
from repro.mo.starts import gaussian_sampler, uniform_sampler
from repro.programs import fig2


def _engine(n_starts=6, seed=123, sampler=None, **config) -> Engine:
    return Engine(
        EngineConfig(
            seed=seed,
            backend=BasinhoppingBackend(niter=40),
            n_starts=n_starts,
            start_sampler=sampler or uniform_sampler(-50.0, 50.0),
            **config,
        )
    )


def _zero_branch_problem() -> AnalysisProblem:
    """``if (x == 0) ...``: S = {0.0}, with a membership oracle."""
    fb = FunctionBuilder("prog", params=["x"])
    with fb.if_(eq(v("x"), num(0.0))):
        fb.let("reached", num(1.0))
    fb.ret(num(0.0))
    program = Program([fb.build()], entry="prog")
    return AnalysisProblem(program, membership=lambda x: x[0] == 0.0)


def _designer(distance) -> InstrumentationSpec:
    """``w += distance(cmp)`` before every comparison."""

    def hook(site, cmp):
        return [Assign("w", BinOp("fadd", Var("w"), distance(cmp)))]

    return InstrumentationSpec(w_var="w", w_init=0.0, before_compare=hook)


def _flawed_designer() -> InstrumentationSpec:
    # The paper's Section 5.2 example: w += x*x, zero for every
    # |x| < ~1e-162 by underflow.
    return _designer(lambda cmp: BinOp("fmul", cmp.lhs, cmp.lhs))


def _ulp_designer() -> InstrumentationSpec:
    return _designer(lambda cmp: call("__ulp_dist", cmp.lhs, cmp.rhs))


class TestFound:
    def test_boundary_problem_solved(self):
        problem = AnalysisProblem(
            fig2.make_program(),
            description="boundary values of Fig. 2",
            membership=lambda x: fig2.reference_boundary_membership(x[0]),
        )
        report = _engine().run(ReductionAnalysis, problem, spec=multiplicative_spec())
        assert report.verdict == "found"
        assert report.found
        (finding,) = report.findings
        assert finding.detail == "verified"
        assert fig2.reference_boundary_membership(finding.x[0])
        assert report.detail.best.f_star == 0.0
        assert report.detail.best.x_star == finding.x

    def test_racing_round_stops_early_on_zero(self):
        problem = AnalysisProblem(fig2.make_program())
        report = _engine(n_starts=50, deterministic=False).run(
            ReductionAnalysis, problem, spec=multiplicative_spec()
        )
        assert report.found
        # Stopped long before exhausting 50 starts.
        assert len(report.detail.attempts) < 50

    def test_program_target_is_wrapped(self):
        """A plain program target becomes a problem with no membership
        oracle, so a zero is found but unverified."""
        report = _engine().run(ReductionAnalysis, "fig2", spec=multiplicative_spec())
        assert report.verdict == "found"
        assert report.target == "fig2"
        assert [f.detail for f in report.findings] == ["unverified"]


class TestNotFound:
    def test_empty_s_reports_not_found(self):
        # Designer whose weak distance is W = x*x + 1: strictly
        # positive minimum, so S is provably empty (Lemma 3.2a).
        fb = FunctionBuilder("g", params=["x"])
        with fb.if_(gt(v("x"), num(0.0))):
            fb.let("t", num(1.0))
        fb.ret(num(0.0))
        program = Program([fb.build()], entry="g")

        def w_hook(site, cmp):
            sq = BinOp("fmul", Var("x"), Var("x"))
            return [Assign("w", BinOp("fadd", sq, Const(1.0)))]

        report = _engine(n_starts=3).run(
            ReductionAnalysis,
            AnalysisProblem(program),
            spec=InstrumentationSpec(w_var="w", w_init=1.0, before_compare=w_hook),
        )
        assert report.verdict == "not-found"
        assert report.detail.best.f_star > 0.0
        assert report.findings == []


class TestLimitation2:
    def test_limitation2_flawed_designer_caught(self):
        # W(x) == 0 by underflow at a tiny nonzero x, which is not in
        # S; the membership re-check rejects it, so the verdict is
        # partial, not a clean found.
        report = _engine(n_starts=8, sampler=gaussian_sampler(1e-180)).run(
            ReductionAnalysis, _zero_branch_problem(), spec=_flawed_designer()
        )
        assert report.verdict == "partial"
        (finding,) = report.findings
        assert finding.detail == "rejected"
        assert finding.x[0] != 0.0
        assert report.detail.best.f_star == 0.0

    def test_numpy_oracle_answer_rejects_the_zero(self):
        """An oracle answering ``numpy.bool_`` (a NumPy comparison) is
        read as a bool: the rejected zero is ``partial``/``rejected``."""
        problem = _zero_branch_problem()
        problem.membership = lambda x: np.bool_(x[0] == 0.0)
        report = _engine(n_starts=8, sampler=gaussian_sampler(1e-180)).run(
            ReductionAnalysis, problem, spec=_flawed_designer()
        )
        assert report.verdict == "partial"
        (finding,) = report.findings
        assert finding.detail == "rejected"
        assert finding.x[0] != 0.0

    def test_ulp_designer_finds_the_member(self):
        report = _engine(n_starts=8, sampler=gaussian_sampler(1e-180)).run(
            ReductionAnalysis, _zero_branch_problem(), spec=_ulp_designer()
        )
        assert report.verdict == "found"
        assert report.representatives == [(0.0,)]


class TestSurface:
    def test_not_registered_by_name(self):
        assert "reduction" not in available_analyses()

    def test_spec_is_required(self):
        with pytest.raises(TypeError, match="InstrumentationSpec"):
            _engine().run(ReductionAnalysis, _zero_branch_problem())

    def test_job_events_label_a_problem_by_its_entry(self):
        from repro.api import JobFinished, JobStarted, Session
        from repro.api.targets import describe_target

        problem = _zero_branch_problem()
        assert describe_target(problem) == "prog"
        events = []
        with Session(EngineConfig(seed=1, n_starts=2), on_event=events.append) as s:
            report = s.run(ReductionAnalysis, problem, spec=_ulp_designer())
        jobs = [e for e in events if isinstance(e, (JobStarted, JobFinished))]
        assert [type(e) for e in jobs] == [JobStarted, JobFinished]
        assert [e.target for e in jobs] == ["prog", "prog"]
        assert report.target == "prog"
        assert report.analysis == "reduction"
