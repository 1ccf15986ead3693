"""Bytecode lowering (`repro.fpir.vm`) and its edge cases."""

import math

import numpy as np
import pytest

from repro.core.weak_distance import WeakDistance
from repro.fpir.builder import (
    FunctionBuilder,
    call,
    fadd,
    fdiv,
    fmul,
    fsub,
    gt,
    iadd,
    idiv,
    imul,
    intc,
    isub,
    lt,
    num,
    shl,
    shr,
    ternary,
    v,
)
from repro.fpir.batch_eval import (
    BatchExecutionError,
    compile_batch,
)
from repro.fpir.instrument import InstrumentationSpec, InstrumentedProgram
from repro.fpir.interpreter import Interpreter
from repro.fpir.labels import assign_labels
from repro.fpir.program import Program
from repro.fpir.vm import (
    BatchCompilationError,
    Branch,
    SelectInstr,
    lower_program,
)


def one_function(fb: FunctionBuilder, globals_=None, arrays=None) -> Program:
    return Program(
        [fb.build()], entry=fb.name, globals=globals_, arrays=arrays
    )


def interpret_each(program: Program, X) -> list:
    interp = Interpreter(program)
    return [interp.run(tuple(map(float, x))).value for x in X]


def w_tiers(program: Program, X) -> dict:
    """W (the global ``w``) per point on every tier; the vectorized
    entry falls back to the scalar loop when the batch faults."""
    out = {}
    for mode in ("interpreter", "compiled", "vectorized"):
        prog = program.clone()
        wd = WeakDistance(
            InstrumentedProgram(
                program=prog,
                index=assign_labels(prog),
                spec=InstrumentationSpec(w_var="w", w_init=0.0),
            ),
            eval_mode=mode,
        )
        if mode == "vectorized":
            out[mode] = list(wd.evaluate_batch(X))
        else:
            out[mode] = [wd(tuple(x)) for x in X]
    return out


def hi_word_program(make_m, compare_negative: bool = True) -> Program:
    """``n = __hi(x); m = make_m(n)``, then w records the sign of m."""
    fb = FunctionBuilder("f", params=["x"])
    fb.let("n", call("__hi", v("x")))
    fb.let("m", make_m(v("n")))
    with fb.if_(gt(v("m"), intc(0))):
        fb.let("w", num(1.0))
    if compare_negative:
        with fb.if_(lt(v("m"), intc(0))):
            fb.let("w", num(2.0))
    fb.ret(v("w"))
    return one_function(fb, globals_={"w": 0.0})


def assert_lanes_equal(got: np.ndarray, want: list) -> None:
    """Bitwise lane comparison (NaN == NaN, +0.0 != -0.0)."""
    assert len(got) == len(want)
    for lane, (g, w) in enumerate(zip(got, want)):
        g, w = float(g), float(w)
        same = (g == w and math.copysign(1.0, g) == math.copysign(1.0, w)) \
            or (math.isnan(g) and math.isnan(w))
        assert same, f"lane {lane}: vectorized {g!r} != scalar {w!r}"


class TestLowering:
    def test_flat_stream_and_disassemble(self):
        fb = FunctionBuilder("f", params=["x"])
        fb.let("y", fmul(v("x"), v("x")))
        with fb.if_(gt(v("y"), num(4.0))):
            fb.let("y", fsub(v("y"), num(4.0)))
        fb.ret(v("y"))
        vm = lower_program(one_function(fb))
        assert vm.n_slots > 0 and len(vm.code) > 0
        assert any(isinstance(i, Branch) for i in vm.code)
        text = vm.disassemble()
        assert "Branch" in text

    def test_safe_ternary_lowers_to_select(self):
        fb = FunctionBuilder("f", params=["x"])
        fb.ret(ternary(gt(v("x"), num(0.0)), v("x"), num(0.0)))
        vm = lower_program(one_function(fb))
        assert any(isinstance(i, SelectInstr) for i in vm.code)
        assert not any(isinstance(i, Branch) for i in vm.code)

    def test_recursion_rejected(self):
        helper = FunctionBuilder("rec", params=["x"])
        helper.ret(call("rec", v("x")))
        main = FunctionBuilder("f", params=["x"])
        main.ret(call("rec", v("x")))
        program = Program(
            [main.build(), helper.build()], entry="f"
        )
        with pytest.raises(BatchCompilationError):
            lower_program(program)

    def test_rejected_external(self):
        fb = FunctionBuilder("f", params=["x"])
        fb.ret(call("__double_to_bits", v("x")))
        with pytest.raises(BatchCompilationError):
            lower_program(one_function(fb))


class TestEdgeCases:
    def test_division_by_zero_lanes(self):
        """fdiv-by-zero lanes keep C semantics: signed inf for nonzero
        numerators, NaN for 0/0 — bit-equal to the interpreter."""
        fb = FunctionBuilder("f", params=["x", "y"])
        fb.ret(fdiv(v("x"), v("y")))
        program = one_function(fb)
        batch = compile_batch(program)
        X = np.array([
            [1.0, 0.0],
            [-1.0, 0.0],
            [0.0, 0.0],
            [1.0, -0.0],
            [5.0, 2.0],
        ])
        result = batch.run(X)
        assert_lanes_equal(result.values, interpret_each(program, X))

    def test_idiv_zero_active_lane_is_batch_fault(self):
        """Integer division by zero on a *live* lane aborts the batch
        (the scalar tiers raise there too); a masked-off zero divisor
        must not."""
        fb = FunctionBuilder("f", params=["x"])
        fb.let("d", ternary(gt(v("x"), num(0.0)), intc(0), intc(2)))
        with fb.if_(lt(v("x"), num(0.0))):
            fb.let("q", idiv(intc(8), v("d")))
            fb.ret(v("q"))
        fb.ret(num(-1.0))
        program = one_function(fb)
        batch = compile_batch(program)
        # x > 0 sets d = 0 but never reaches the division: fine.
        ok = batch.run(np.array([[3.0], [-3.0]]))
        assert_lanes_equal(
            ok.values, interpret_each(program, [[3.0], [-3.0]])
        )
        # A lane that is both x < 0 and d == 0 cannot exist here; force
        # one by dividing on the positive side instead.
        fb2 = FunctionBuilder("f", params=["x"])
        fb2.let("d", ternary(gt(v("x"), num(0.0)), intc(0), intc(2)))
        fb2.ret(fadd(num(0.0), idiv(intc(8), v("d"))))
        bad = compile_batch(one_function(fb2))
        with pytest.raises(BatchExecutionError):
            bad.run(np.array([[3.0], [-3.0]]))

    def test_overflow_to_inf_in_masked_branch(self):
        """A lane overflowing to inf inside a branch it did not take
        must not leak into its result — masked stores only merge live
        lanes (and select arms never observe each other)."""
        fb = FunctionBuilder("f", params=["x"])
        fb.let("y", v("x"))
        with fb.if_(gt(v("x"), num(1e300))) as arm:
            fb.let("y", fmul(v("x"), v("x")))  # inf on big lanes
            with arm.orelse():
                fb.let("y", fadd(v("x"), num(1.0)))
        fb.ret(v("y"))
        program = one_function(fb)
        batch = compile_batch(program)
        X = np.array([[1e308], [2.0], [-1e308], [0.0]])
        result = batch.run(X)
        want = interpret_each(program, X)
        assert math.isinf(want[0])  # the overflow really happens
        assert_lanes_equal(result.values, want)
        # Same shape through a select (both arms evaluated, masked merge).
        fb2 = FunctionBuilder("f", params=["x"])
        fb2.ret(
            ternary(
                gt(v("x"), num(1e300)),
                fmul(v("x"), v("x")),
                fadd(v("x"), num(1.0)),
            )
        )
        program2 = one_function(fb2)
        result2 = compile_batch(program2).run(X)
        assert_lanes_equal(result2.values, interpret_each(program2, X))

    def test_empty_batch(self):
        fb = FunctionBuilder("f", params=["x"])
        fb.ret(fadd(v("x"), num(1.0)))
        batch = compile_batch(one_function(fb))
        result = batch.run(np.empty((0, 1)))
        assert result.values is not None and len(result.values) == 0
        assert len(result.halted) == 0 and len(result.exhausted) == 0

    def test_single_point_batch_parity(self):
        """A one-lane batch is just the interpreter with extra steps."""
        fb = FunctionBuilder("f", params=["x", "y"])
        fb.let("s", fadd(fmul(v("x"), v("x")), v("y")))
        with fb.if_(lt(v("s"), num(0.0))):
            fb.let("s", fsub(num(0.0), v("s")))
        fb.ret(call("sqrt", v("s")))
        program = one_function(fb)
        batch = compile_batch(program)
        for point in ([3.0, 4.0], [-2.0, -30.0], [1e200, 0.0]):
            result = batch.run(np.array([point]))
            assert_lanes_equal(
                result.values, interpret_each(program, [point])
            )

    def test_shl_int64_overflow_is_batch_fault(self):
        """``__hi(x) << 32`` leaves int64 for negative x: the scalar
        tiers compute on Python ints (m > 0), so the batch must not
        wrap (it used to read m < 0 and set w = 2)."""
        program = hi_word_program(lambda n: shl(n, intc(32)))
        X = [[-1.5], [1.5], [-0.0]]
        assert w_tiers(program, X) == dict.fromkeys(
            ("interpreter", "compiled", "vectorized"), [1.0, 1.0, 1.0]
        )
        with pytest.raises(BatchExecutionError):
            compile_batch(program).run(np.array(X))

    def test_imul_int64_overflow_is_batch_fault(self):
        program = hi_word_program(
            lambda n: imul(n, n), compare_negative=False
        )
        X = [[-1.5], [1.5], [-0.0], [3.0]]
        assert w_tiers(program, X) == dict.fromkeys(
            ("interpreter", "compiled", "vectorized"), [1.0] * 4
        )
        with pytest.raises(BatchExecutionError):
            compile_batch(program).run(np.array(X))

    def test_in_range_int_ops_stay_on_the_batch_tier(self):
        """Exact int64 results (including the edges) never fault, and
        an overflowing lane that is masked off does not either."""
        fb = FunctionBuilder("f", params=["x"])
        fb.let("n", call("__hi", v("x")))
        fb.let("a", iadd(shl(intc(2**31 - 1), intc(32)), intc(2**32 - 1)))
        fb.let("b", isub(intc(-(2**62)), intc(2**62)))
        fb.let("c", imul(v("n"), intc(-3)))
        with fb.if_(gt(v("x"), num(0.0))):
            fb.let("c", shl(v("n"), intc(32)))  # overflows for x <= 0
        fb.ret(
            fadd(
                fadd(call("__i2d", shr(v("a"), intc(70))), call("__i2d", v("b"))),
                call("__i2d", iadd(v("c"), idiv(intc(-7), intc(2)))),
            )
        )
        program = one_function(fb)
        X = [[-1e-300], [-0.0], [2.0]]
        result = compile_batch(program).run(np.array(X))
        assert_lanes_equal(result.values, interpret_each(program, X))

    def test_negative_shift_count_is_batch_fault(self):
        fb = FunctionBuilder("f", params=["x"])
        fb.ret(call("__i2d", shr(call("__hi", v("x")), intc(-1))))
        with pytest.raises(BatchExecutionError):
            compile_batch(one_function(fb)).run(np.array([[1.0]]))

    def test_huge_int_constant_rejected(self):
        fb = FunctionBuilder("f", params=[])
        fb.ret(fadd(num(0.0), intc(2**64)))
        with pytest.raises(BatchCompilationError):
            compile_batch(one_function(fb))
