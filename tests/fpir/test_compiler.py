"""Compiler correctness: differential testing against the interpreter."""


import pytest
from hypothesis import given, strategies as st

from repro.fpir.builder import FunctionBuilder, call, fadd, num, v
from repro.fpir.compiler import CompilationError, compile_program
from repro.fpir.interpreter import StepLimitExceeded
from repro.fpir.program import Program
from tests.conftest import finite_doubles, moderate_doubles, run_both


class TestDifferentialSmall:
    @given(finite_doubles)
    def test_fig2(self, x):
        from repro.programs import fig2

        run_both(fig2.make_program(), [x])

    @given(finite_doubles)
    def test_fig1a(self, x):
        from repro.programs import fig1

        run_both(fig1.make_program_a(), [x])

    @given(moderate_doubles)
    def test_fig1b(self, x):
        from repro.programs import fig1

        run_both(fig1.make_program_b(), [x])

    @given(finite_doubles)
    def test_fig7(self, x):
        from repro.programs import fig7

        run_both(fig7.make_characteristic_program(), [x])


class TestDifferentialSubstrate:
    @given(finite_doubles, finite_doubles)
    def test_bessel(self, nu, x):
        from repro.gsl import bessel

        run_both(bessel.make_program(), [nu, x])

    @given(moderate_doubles)
    def test_glibc_sin(self, x):
        from repro.libm import sin as glibc_sin

        run_both(glibc_sin.make_program(), [x])

    @given(st.floats(min_value=-50.0, max_value=10.0))
    def test_airy(self, x):
        from repro.gsl import airy

        run_both(airy.make_program(), [x])

    @given(
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=-1e3, max_value=-1e-3),
    )
    def test_hyperg(self, a, b, x):
        from repro.gsl import hyperg

        run_both(hyperg.make_program(), [a, b, x])


class TestCompilerSpecifics:
    def test_keyword_variable_names_mangled(self):
        fb = FunctionBuilder("f", params=["class"])
        fb.let("lambda", fadd(v("class"), num(1.0)))
        fb.ret(v("lambda"))
        prog = Program([fb.build()], entry="f")
        assert compile_program(prog).run([1.0]).value == 2.0

    def test_unknown_external_rejected_at_compile_time(self):
        fb = FunctionBuilder("f", params=[])
        fb.ret(call("nonexistent_fn"))
        prog = Program([fb.build()], entry="f")
        with pytest.raises(CompilationError):
            compile_program(prog)

    def test_source_is_retained(self):
        from repro.programs import fig2

        compiled = compile_program(fig2.make_program())
        assert "def _fn_prog" in compiled.source

    def test_loop_budget(self):
        fb = FunctionBuilder("f", params=[])
        from repro.fpir.builder import lt

        with fb.while_(lt(num(0.0), num(1.0))):
            fb.let("x", num(1.0))
        prog = Program([fb.build()], entry="f")
        compiled = compile_program(prog)
        rt = compiled.new_runtime(max_loop_steps=100)
        with pytest.raises(StepLimitExceeded):
            compiled.run([], rt=rt)

    def test_runtime_label_sets_shared_across_runs(self):
        from repro.fpir.builder import in_set, ternary

        fb = FunctionBuilder("f", params=[])
        fb.ret(ternary(in_set("L", "l1"), num(1.0), num(0.0)))
        prog = Program([fb.build()], entry="f")
        compiled = compile_program(prog)
        rt = compiled.new_runtime()
        assert compiled.run([], rt=rt).value == 0.0
        # A set the runtime lacks is added on first use.
        assert rt.sets == {"L": set()}
        rt.label_set("L").add("l1")
        assert compiled.run([], rt=rt).value == 1.0

    def test_globals_reset_between_runs(self):
        fb = FunctionBuilder("f", params=[], return_type=None)
        fb.let("g", fadd(v("g"), num(1.0)))
        prog = Program([fb.build()], entry="f", globals={"g": 0.0})
        compiled = compile_program(prog)
        rt = compiled.new_runtime()
        assert compiled.run([], rt=rt).globals["g"] == 1.0
        assert compiled.run([], rt=rt).globals["g"] == 1.0

    def test_empty_function_body(self):
        fb = FunctionBuilder("f", params=["x"], return_type=None)
        prog = Program([fb.build()], entry="f")
        assert compile_program(prog).run([1.0]).value is None

    def test_non_finite_constants(self):
        """inf/nan literals have no Python source spelling: the compiled
        tier must still produce the interpreter's exact values."""
        import math

        from repro.fpir.builder import fmul, neg

        for value in (math.inf, -math.inf, math.nan):
            fb = FunctionBuilder("f", params=["x"])
            fb.ret(fadd(fmul(v("x"), num(value)), neg(num(value))))
            prog = Program([fb.build()], entry="f")
            for x in (2.0, -0.0):
                run_both(prog, [x])
