"""Pretty-printer output and the externals registry."""

import math

import pytest

from repro.fpir import externals
from repro.fpir.pretty import pretty_expr, pretty_function, pretty_program
from repro.fpir.builder import FunctionBuilder, call, fadd, fmul, lt, num, ternary, v
from repro.fpir.program import Program


class TestPretty:
    def test_expression(self):
        text = pretty_expr(fmul(fadd(v("x"), num(1.0)), v("y")))
        assert text == "((x + 1.0) * y)"

    def test_ternary(self):
        text = pretty_expr(ternary(lt(v("a"), v("b")), num(0.0), v("a")))
        assert "?" in text and ":" in text

    def test_function_rendering(self, fig2_program):
        text = pretty_function(fig2_program.entry_function)
        assert "if (x <= 1.0)" in text
        assert text.startswith("Type.DOUBLE prog") or "prog(" in text

    def test_program_rendering_includes_globals(self, bessel_program):
        text = pretty_program(bessel_program)
        assert "global result_val" in text
        assert "gsl_sf_bessel_Knu_scaled_asympx_e" in text


class TestExternals:
    def test_lookup_known(self):
        assert externals.lookup("sqrt")(4.0) == 2.0

    def test_lookup_unknown_raises_with_context(self):
        with pytest.raises(KeyError) as exc:
            externals.lookup("frobnicate")
        assert "frobnicate" in str(exc.value)

    def test_register_conflict(self):
        with pytest.raises(ValueError):
            externals.register("sqrt", lambda x: x)

    def test_register_overwrite_allowed(self):
        original = externals.lookup("sqrt")
        try:
            externals.register("sqrt", lambda x: -1.0, overwrite=True)
            assert externals.lookup("sqrt")(9.0) == -1.0
        finally:
            externals.register("sqrt", original, overwrite=True)

    def test_d2i_truncates(self):
        d2i = externals.lookup("__d2i")
        assert d2i(2.9) == 2
        assert d2i(-2.9) == -2

    def test_d2i_special_values_do_not_crash(self):
        # C UB; we mimic x86 cvttsd2si (INT64_MIN).
        d2i = externals.lookup("__d2i")
        assert d2i(float("nan")) == -(2**63)
        assert d2i(math.inf) == -(2**63)
        assert d2i(1e300) == -(2**63)

    def test_hi_matches_glibc_macro(self):
        assert externals.lookup("__hi")(1.0) == 0x3FF00000

    def test_ulp_dist_external(self):
        ulp = externals.lookup("__ulp_dist")
        assert ulp(1.0, 1.0) == 0.0
        assert ulp(0.0, 5e-324) == 1.0
        assert ulp(float("nan"), 1.0) == math.inf

    def test_registry_copy_is_isolated(self):
        snapshot = externals.registry()
        snapshot["sqrt"] = None
        assert externals.lookup("sqrt") is not None

    def test_carried_keeps_only_externals_that_pickle_by_reference(
        self, monkeypatch
    ):
        monkeypatch.setitem(externals._REGISTRY, "__lgamma", math.lgamma)
        monkeypatch.setitem(externals._REGISTRY, "__twice", lambda x: 2.0 * x)
        fb = FunctionBuilder("prog", params=["x"])
        fb.ret(fadd(call("__lgamma", v("x")), call("__twice", call("sqrt", v("x")))))
        program = Program([fb.build()], entry="prog")
        assert externals.carried(program) == (("__lgamma", math.lgamma),)
