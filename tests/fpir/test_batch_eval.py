"""Vectorized evaluator (`repro.fpir.batch_eval`): the parity contract.

The batch tier's one promise is bit parity with the scalar
interpreter, lane for lane — these tests enforce it over the whole
program suite, through runtime label-set evolution, Halt, the loop
budget, and the calibrated externals.
"""

import math

import numpy as np
import pytest

from repro.analyses.overflow import overflow_spec
from repro.core.weak_distance import WeakDistance
from repro.fpir.builder import (
    FunctionBuilder,
    call,
    fadd,
    fdiv,
    fsub,
    gt,
    in_set,
    lnot,
    lt,
    num,
    v,
)
from repro.fpir.compiler import compile_program
from repro.fpir.instrument import instrument
from repro.fpir.interpreter import StepLimitExceeded
from repro.fpir.program import Program
from repro.programs import get_program, list_programs

#: The whole catalog — including fig7-characteristic, whose own global
#: `w` makes instrument() pick a fresh instrumentation variable.
SUITE = list(list_programs())


def one_function(fb: FunctionBuilder, globals_=None) -> Program:
    return Program([fb.build()], entry=fb.name, globals=globals_)


#: Batch sizes from a single point to beyond the population backend's 32.
SIZES = (1, 2, 7, 32, 128)

#: IEEE special values planted in the first lanes of every batch.
SPECIALS = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    1.7976931348623157e308, -1.5, 1.5,
)

#: A loop budget that gsl-airy exceeds on some lanes (its loops run 20
#: to 50 iterations on these points) and not on others.
SMALL_BUDGET = 30


def point_cloud(n_inputs: int, n_points: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    magnitudes = rng.uniform(-30.0, 30.0, size=(n_points, n_inputs))
    signs = rng.choice((-1.0, 1.0), size=(n_points, n_inputs))
    return signs * 10.0 ** magnitudes


def with_specials(X: np.ndarray) -> np.ndarray:
    for lane in range(min(len(X), len(SPECIALS))):
        X[lane, lane % X.shape[1]] = SPECIALS[lane]
    return X


def compiled_exhausts(compiled, x, label_sets, budget) -> bool:
    """Does the compiled tier exceed ``budget`` loop iterations on x?"""
    rt = compiled.new_runtime(budget)
    rt.sets = label_sets
    try:
        compiled.run(tuple(map(float, x)), rt=rt)
    except StepLimitExceeded:
        return True
    return False


def make_pair(name: str):
    program = get_program(name)
    vec = WeakDistance(instrument(program, overflow_spec()),
                       eval_mode="vectorized")
    ref = WeakDistance(instrument(program, overflow_spec()),
                       eval_mode="interpreter")
    return program, vec, ref


def assert_bit_equal(got: np.ndarray, want, context: str = "") -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    bad = np.nonzero(got.view(np.uint64) != want.view(np.uint64))[0]
    assert bad.size == 0, (
        f"{context}: {bad.size} lanes diverge, first at {bad[0]}: "
        f"{got[bad[0]]!r} vs {want[bad[0]]!r}"
    )


@pytest.mark.parametrize("name", SUITE)
def test_suite_parity(name):
    """evaluate_batch == [W(x) for x] bit for bit, instrumented W, over
    every suite program the overflow spec instruments: at every batch
    size, with IEEE specials in the first lanes, and with the label set
    empty, partly full and full.  Under a small loop budget the lanes
    that exceed it are the ones the compiled tier stops."""
    from repro.fpir.batch_eval import compile_batch

    program, vec, ref = make_pair(name)
    assert vec.supports_batch, f"{name} must lower"
    batch = compile_batch(vec.program)
    compiled = compile_program(vec.program)
    labels = sorted(site.label for site in vec.instrumented.index.fp_ops)
    for fill in (0.0, 0.3, 1.0):
        covered = set(labels[: int(len(labels) * fill)])
        for wd in (vec, ref):
            wd.label_sets["L"].clear()
            wd.label_sets["L"].update(covered)
        for n in SIZES:
            X = with_specials(point_cloud(program.num_inputs, n, seed=7 + n))
            context = f"{name} N={n} |L|={len(covered)}"
            got = vec.evaluate_batch(X)
            want = [ref(tuple(map(float, x))) for x in X]
            assert_bit_equal(got, want, context)
            result = batch.run(
                X, label_sets={"L": covered}, max_loop_steps=SMALL_BUDGET
            )
            exhausted = [
                compiled_exhausts(compiled, x, {"L": covered}, SMALL_BUDGET)
                for x in X
            ]
            assert result.exhausted.tolist() == exhausted, context


def test_label_set_evolution_parity():
    """Growing the runtime label sets between batches changes W — the
    batch tier must see the same membership the interpreter does."""
    program, vec, ref = make_pair("fig2")
    X = point_cloud(program.num_inputs, 64, seed=11)
    assert_bit_equal(
        vec.evaluate_batch(X),
        [ref(tuple(map(float, x))) for x in X],
        "empty L",
    )
    # Cover a few labels and re-evaluate: membership flips branches.
    labels = sorted(
        site.label
        for site in vec.instrumented.index.fp_ops
    )[:2]
    for wd in (vec, ref):
        wd.label_sets["L"].update(labels)
    assert_bit_equal(
        vec.evaluate_batch(X),
        [ref(tuple(map(float, x))) for x in X],
        f"L={labels}",
    )


def test_halted_lanes():
    """Halt stops its lane (and only its lane); the batch reports it."""
    from repro.fpir.batch_eval import compile_batch

    fb = FunctionBuilder("f", params=["x"])
    with fb.if_(gt(v("x"), num(0.0))):
        fb.let("w", num(0.0))
        fb.halt()
    fb.let("w", fadd(v("x"), num(10.0)))
    fb.ret(v("w"))
    program = one_function(fb, globals_={"w": 1.0})
    result = compile_batch(program).run(np.array([[5.0], [-5.0]]))
    assert list(result.halted) == [True, False]
    assert result.globals["w"][0] == 0.0
    assert result.globals["w"][1] == 5.0


def test_step_budget_exhaustion_reads_as_inf():
    """Lanes that exceed max_loop_steps match the scalar tier's
    StepLimitExceeded -> inf; terminating lanes are untouched.

    The reference here is the *compiled* tier: like the batch tier it
    budgets loop iterations, whereas the interpreter budgets
    interpreted statements (a coarser, pre-existing difference)."""
    fb = FunctionBuilder("f", params=["x"])
    fb.let("i", num(0.0))
    with fb.while_(lt(v("i"), v("x"))):
        fb.let("i", fadd(v("i"), num(1.0)))
    fb.let("w", v("i"))
    fb.ret(v("i"))
    program = one_function(fb, globals_={"w": 0.0})
    from repro.fpir.instrument import InstrumentationSpec, InstrumentedProgram
    from repro.fpir.labels import assign_labels

    def wrap(mode):
        prog = program.clone()
        return WeakDistance(
            InstrumentedProgram(
                program=prog,
                index=assign_labels(prog),
                spec=InstrumentationSpec(w_var="w", w_init=0.0),
            ),
            eval_mode=mode,
            max_loop_steps=100,
        )

    vec, ref = wrap("vectorized"), wrap("compiled")
    X = np.array([[3.0], [1e9], [50.0], [math.inf]])
    got = vec.evaluate_batch(X)
    want = [ref(tuple(x)) for x in X]
    assert want[1] == math.inf and want[3] == math.inf  # budget hit
    assert_bit_equal(got, want, "loop budget")


def test_in_label_set_branches():
    """InLabelSet reads the *shared* runtime set object."""
    from repro.fpir.batch_eval import compile_batch

    fb = FunctionBuilder("f", params=["x"])
    with fb.if_(lnot(in_set("L", "l1"))) as arm:
        fb.ret(fadd(v("x"), num(1.0)))
        with arm.orelse():
            fb.ret(fsub(v("x"), num(1.0)))
    program = one_function(fb)
    batch = compile_batch(program)
    X = np.array([[10.0], [20.0]])
    assert list(batch.run(X, label_sets={"L": set()}).values) == [11.0, 21.0]
    assert list(batch.run(X, label_sets={"L": {"l1"}}).values) == [9.0, 19.0]


def test_calibrated_externals_parity():
    """Externals (vectorized or lane-wise) stay bit-exact — including
    floor's -0.0 edge where numpy and C disagree, and the bit-level
    intrinsics."""
    cases = [
        ("sqrt", [[4.0], [2.0], [-1.0], [0.0], [1e300]]),
        ("exp", [[0.0], [1.0], [709.0], [710.0], [-745.0], [-746.0]]),
        ("floor", [[-0.0], [0.5], [-0.5], [1e300], [-1e300]]),
        ("sin", [[0.0], [1e-8], [0.5], [100.0], [1e300]]),
        ("__hi", [[2.0], [-0.0], [1e-310], [5e-324]]),
    ]
    for name, points in cases:
        fb = FunctionBuilder("f", params=["x"])
        fb.ret(call(name, v("x")))
        program = one_function(fb)
        from repro.fpir.batch_eval import compile_batch
        from repro.fpir.interpreter import Interpreter

        result = compile_batch(program).run(np.array(points))
        interp = Interpreter(program)
        want = [interp.run(tuple(p)).value for p in points]
        got = [float(val) for val in result.values]
        for g, w, p in zip(got, want, points):
            same = (g == w and math.copysign(1.0, g) == math.copysign(1.0, w)) \
                or (math.isnan(g) and math.isnan(w))
            assert same, f"{name}({p[0]!r}): {g!r} != {w!r}"


def test_weak_distance_scalar_fallback():
    """A program the tier cannot lower still answers evaluate_batch —
    through the scalar loop, same values."""
    fb = FunctionBuilder("f", params=["x"])
    fb.let("w", call("__double_to_bits", v("x")))  # rejected external
    fb.ret(v("w"))
    program = one_function(fb, globals_={"w": 0.0})
    from repro.fpir.instrument import InstrumentationSpec, InstrumentedProgram
    from repro.fpir.labels import assign_labels

    prog = program.clone()
    wd = WeakDistance(
        InstrumentedProgram(
            program=prog,
            index=assign_labels(prog),
            spec=InstrumentationSpec(w_var="w", w_init=0.0),
        ),
        eval_mode="vectorized",
    )
    assert not wd.supports_batch
    X = [[1.5], [2.5]]
    got = wd.evaluate_batch(X)
    want = [wd(x) for x in X]
    assert list(got) == want


def test_events_are_scalar_replay_only():
    """A batch run records no events: the replay machinery (counters,
    last_events) is a scalar-tier feature by contract."""
    program, vec, _ = make_pair("fig2")
    vec(tuple([1.0] * program.num_inputs))
    scalar_events = dict(vec.last_events)
    vec.evaluate_batch(point_cloud(program.num_inputs, 8, seed=3))
    assert vec.last_events == scalar_events  # untouched by the batch


def _integer_select_programs():
    """Programs with an integer operator where only some lanes run it:
    the issue's ``k * k`` repro, each integer operator on a float
    operand outside int64 (lane 1e30 never takes the arm), and the
    right-hand side of ``and``."""
    from repro.fpir.builder import iadd, imul, intc, land, ternary
    from repro.fpir.nodes import INT_OPS, BinOp, UnOp

    fb = FunctionBuilder("f", params=["x"])
    fb.let("k", call("__d2i", v("x")))
    fb.let("t", ternary(gt(v("x"), num(1e10)), intc(0), imul(v("k"), v("k"))))
    fb.ret(call("__i2d", v("t")))
    yield "k*k", one_function(fb), [3.0, 1e12, -2.0], [9.0, 0.0, 4.0]
    for op in [op for op in INT_OPS if op != "idiv"] + ["ineg"]:
        arm = (UnOp("ineg", v("x")) if op == "ineg"
               else BinOp(op, v("x"), intc(1)))
        fb = FunctionBuilder("f", params=["x"])
        fb.let("t", ternary(gt(v("x"), num(1e10)), intc(0), arm))
        fb.ret(call("__i2d", v("t")))
        yield op, one_function(fb), [3.0, 1e30, -2.0], None
    fb = FunctionBuilder("f", params=["x"])
    fb.let("b", land(lt(v("x"), num(1e10)),
                     gt(iadd(v("x"), intc(1)), intc(0))))
    fb.ret(ternary(v("b"), num(1.0), num(0.0)))
    yield "and", one_function(fb), [3.0, 1e30, -2.0], [1.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "name,program,xs,want",
    [pytest.param(*case, id=case[0]) for case in _integer_select_programs()],
)
def test_integer_arm_runs_only_on_its_lanes(name, program, xs, want):
    """An integer operator can fault on a lane whose scalar run never
    computes it (int64 overflow, a negative shift count, a float
    operand outside int64), so it lowers under a branch mask, never a
    select: the batch runs in one pass and matches the interpreter."""
    from repro.fpir.batch_eval import compile_batch
    from repro.fpir.interpreter import Interpreter

    reference = [Interpreter(program).run((x,)).value for x in xs]
    if want is not None:
        assert reference == want
    got = compile_batch(program).run(np.array([[x] for x in xs])).values
    assert_bit_equal(got, reference, name)


def test_nan_sign_of_division_by_zero():
    """``0/0`` and ``nan/0`` are ``+nan`` on the scalar tiers
    (``arith.fdiv``); the hardware's ``0/0`` has its sign bit set and
    ``nan/0`` keeps the operand's NaN, so the batch tier rewrites both
    (a generated program's ``__hi(x / x)`` at ``x = 0`` caught it)."""
    from repro.fpir.batch_eval import compile_batch
    from repro.fpir.interpreter import Interpreter

    fb = FunctionBuilder("f", params=["x", "y"])
    fb.ret(call("__i2d", call("__hi", fdiv(v("x"), v("y")))))
    program = one_function(fb)
    nan = float("nan")
    X = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (nan, 0.0), (-nan, -0.0),
         (1.0, 0.0), (-1.0, 0.0), (nan, 1.0), (-nan, 2.0), (6.0, 3.0)]
    got = compile_batch(program).run(np.array(X)).values
    interpreter = Interpreter(program)
    assert [float(value) for value in got] == [
        interpreter.run(x).value for x in X
    ]


def test_nan_sign_from_calibrated_external():
    """``__hi(sqrt(-1))`` agrees between the tiers: calibration compares
    NaN lanes bit for bit, so the admitted ``sqrt`` returns the scalar
    externals' ``+nan``, not NumPy's default NaN (sign bit set)."""
    from repro.fpir.batch_eval import compile_batch
    from repro.fpir.interpreter import Interpreter

    fb = FunctionBuilder("f", params=["x"])
    fb.ret(call("__i2d", call("__hi", call("sqrt", v("x")))))
    program = one_function(fb)
    got = compile_batch(program).run(np.array([[-1.0]])).values
    want = Interpreter(program).run((-1.0,)).value
    assert float(got[0]) == want
