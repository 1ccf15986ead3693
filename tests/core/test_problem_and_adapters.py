"""AnalysisProblem (Definition 2.1) and the Limitation-1 adapters."""

import pytest

from repro.core.adapters import adapt_int_param, map_solution_back
from repro.core.problem import AnalysisProblem
from repro.fpir.builder import FunctionBuilder, fadd, v
from repro.fpir.interpreter import run_program
from repro.fpir.program import Param, Program
from repro.fpir.types import INT


def _int_param_program() -> Program:
    fb = FunctionBuilder("f", params=[Param("n", INT), Param("x")])
    fb.ret(fadd(v("n"), v("x")))
    return Program([fb.build()], entry="f")


class TestProblem:
    def test_double_domain_accepted(self, fig2_program):
        problem = AnalysisProblem(fig2_program)
        assert problem.n_inputs == 1

    def test_non_double_domain_rejected(self):
        # Limitation 1: dom(Prog) must be F^N.
        with pytest.raises(ValueError) as exc:
            AnalysisProblem(_int_param_program())
        assert "Limitation 1" in str(exc.value)

    def test_membership_wrapper(self, fig2_program):
        problem = AnalysisProblem(
            fig2_program, membership=lambda x: x[0] > 0.0
        )
        assert problem.contains([1.0]) is True
        assert problem.contains([-1.0]) is False

    def test_membership_absent(self, fig2_program):
        assert AnalysisProblem(fig2_program).contains([1.0]) is None


class TestAdapters:
    def test_int_param_wrapped(self):
        adapted = adapt_int_param(_int_param_program())
        problem = AnalysisProblem(adapted)  # now valid
        assert problem.n_inputs == 2
        # d2i truncation: 2.9 -> 2.
        assert run_program(adapted, [2.9, 0.5]).value == 2.5

    def test_already_double_is_identity(self, fig2_program):
        assert adapt_int_param(fig2_program) is fig2_program

    def test_map_solution_back_truncates(self):
        prog = _int_param_program()
        assert map_solution_back(prog, (2.9, 0.5)) == (2, 0.5)

