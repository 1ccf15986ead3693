"""Generated programs: the batch kernel against the scalar tiers.

A generator builds well-formed FPIR programs over two double inputs
through the builder API.  Between them they reach every op and control
kind the batch tier lowers to: ``Return`` inside a branch and inside a
loop, ``Halt`` inside an inlined helper, a helper called twice that
assigns a global, ternaries that lower to a select and ones that lower
to a branch (integer division, array indexing), ``and``/``or`` on
non-boolean operands, integer operators and negation including int64
overflow, calibrated and lane-wise externals, label-set probes, and a
loop that can exceed the budget.
Every program ends by folding into ``w`` the high word of a NaN that a
calibrated external makes, the one place a NaN's sign can show.

Each program runs as one batch and lane by lane on the scalar tiers:

* W, every global and ``halted`` match the reference interpreter on
  every lane, and the batch raises ``BatchExecutionError`` exactly when
  some lane faults there.  The reference is strict the way the batch is
  (:class:`StrictInterpreter`): an integer whose exact value leaves
  int64 faults, and both arms of a select (both operands of a
  non-short-circuit ``and``/``or``) are evaluated, since the batch
  evaluates them on every lane.
* Under a small loop budget, ``exhausted`` matches the compiled tier,
  whose budget counts loop iterations the same way.
"""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpir.batch_eval import BatchExecutionError, _select_safe, compile_batch
from repro.fpir.builder import (
    FunctionBuilder,
    aidx,
    band,
    bor,
    bxor,
    call,
    eq,
    fadd,
    fdiv,
    fmul,
    fsub,
    ge,
    gt,
    iadd,
    idiv,
    imul,
    in_set,
    intc,
    isub,
    land,
    le,
    lnot,
    lor,
    lt,
    ne,
    neg,
    num,
    shl,
    shr,
    ternary,
    v,
)
from repro.fpir.compiler import compile_program
from repro.fpir.interpreter import (
    ExecutionContext,
    Interpreter,
    StepLimitExceeded,
)
from repro.fpir.nodes import INT_OPS, BinOp, Ternary, UnOp
from repro.fpir.program import Program
from tests.fpir.test_vm import CONTROLS, OPS, emitted_kinds

LABELS = ("l1", "l2", "l3")
FLOATS = (0.0, -0.0, 1.0, -2.5, 0.5, 3.0, 1e308, -1e-310, 1e16, math.inf, math.nan)
INTS = (0, 1, 3, -7, 31, 32, 40, 2**62, -(2**63))
UNARY_EXTERNALS = ("sqrt", "sin", "fabs", "log", "exp", "tan", "floor")
BINARY_EXTERNALS = ("pow", "fmod", "__ulp_dist")
FLOAT_OPS = (fadd, fsub, fmul, fdiv)
INT_BUILDERS = (iadd, isub, imul, band, bor, bxor, shl, shr)
COMPARES = (lt, le, gt, ge, eq, ne)
#: Loop budget for the exhaustion leg (the loops run up to 6 times).
SMALL_BUDGET = 3


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------


class Choices:
    """Where the generator's decisions come from: hypothesis draws, or
    a seeded RNG (for the deterministic coverage check)."""

    def __init__(self, draw=None, seed=None):
        self.draw = draw
        self.rng = random.Random(seed)

    def pick(self, options):
        if self.draw is not None:
            return self.draw(st.sampled_from(options))
        return self.rng.choice(options)

    def integer(self, lo, hi):
        if self.draw is not None:
            return self.draw(st.integers(lo, hi))
        return self.rng.randint(lo, hi)


class Gen:
    """Builds one entry function; tracks which names are defined."""

    def __init__(self, choices: Choices):
        self.c = choices
        self.floats = ["x", "y"]
        self.ints = []
        self.count = 0

    def fresh(self, prefix):
        self.count += 1
        return f"{prefix}{self.count}"

    # -- expressions (select-safe unless noted) ------------------------------

    def fexpr(self, depth=0):
        c = self.c
        kind = c.integer(0, 6 if depth < 2 else 1)
        if kind == 0:
            return v(c.pick(self.floats))
        if kind == 1:
            return num(c.pick(FLOATS))
        if kind == 2:
            return c.pick(FLOAT_OPS)(self.fexpr(depth + 1), self.fexpr(depth + 1))
        if kind == 3:
            return neg(self.fexpr(depth + 1))
        if kind == 4:
            return call(c.pick(UNARY_EXTERNALS), self.fexpr(depth + 1))
        if kind == 5:
            return call(
                c.pick(BINARY_EXTERNALS),
                self.fexpr(depth + 1),
                self.fexpr(depth + 1),
            )
        return ternary(
            self.cond(depth + 1), self.fexpr(depth + 1), self.fexpr(depth + 1)
        )

    def iexpr(self, depth=0):
        c = self.c
        kind = c.integer(0, 4 if depth < 2 else 2)
        if kind == 0 and self.ints:
            return v(c.pick(self.ints))
        if kind == 1:
            return intc(c.pick(INTS))
        if kind in (0, 2):
            return self.word(depth + 1)
        if kind == 3:
            return c.pick(INT_BUILDERS)(self.iexpr(depth + 1), self.iexpr(depth + 1))
        # Integer negation; -(2**63) in INTS makes it leave int64.
        return UnOp("ineg", self.iexpr(depth + 1))

    def word(self, depth):
        """An int from a double: ``__d2i``, or a word of its bits (which
        see a NaN's sign)."""
        e = self.fexpr(depth)
        return call(self.c.pick(("__hi", "__lo", "__d2i")), e)

    def nan_sign(self):
        """The high word of a NaN that a calibrated external makes
        (``sqrt``/``log`` of a negative, ``fmod(e, 0.0)``), as a double.
        W and the globals compare NaNs by value, so only the bits of a
        word that reaches them show whether the batch tier gives that
        NaN the scalar externals' sign."""
        e = self.fexpr(1)
        negative = fsub(num(-1.0), call("fabs", e))
        nan = self.c.pick(
            (
                call("sqrt", negative),
                call("log", negative),
                call("fmod", e, num(0.0)),
            )
        )
        return call("__i2d", call("__hi", nan))

    def cond(self, depth=0):
        c = self.c
        kind = c.integer(0, 4 if depth < 2 else 0)
        if kind == 0:
            return c.pick(COMPARES)(self.fexpr(depth + 1), self.fexpr(depth + 1))
        if kind == 1:
            return lnot(self.cond(depth + 1))
        if kind == 2:  # non-boolean operands
            return c.pick((land, lor))(self.fexpr(depth + 1), self.fexpr(depth + 1))
        if kind == 3:
            return in_set("L", c.pick(LABELS))
        # and/or with an operand that can fault: short-circuit branch
        return c.pick((land, lor))(
            self.cond(depth + 1), gt(aidx("T", self.index()), num(0.0))
        )

    def index(self):
        """An index into ``T`` (4 entries), out of range on some lanes
        one time in three."""
        mask = self.c.pick((3, 3, 7))
        return band(self.word(1), intc(mask))

    def divisor(self):
        """Nonzero two times in three."""
        low = band(self.word(1), intc(3))
        return self.c.pick((bor(low, intc(1)), bor(low, intc(1)), low))

    # -- statements ----------------------------------------------------------

    def block(self, fb, depth):
        for _ in range(self.c.integer(1, 3 if depth else 6)):
            self.stmt(fb, depth)

    def stmt(self, fb, depth, kind=None):
        c = self.c
        if kind is None:
            kind = c.integer(0, 10 if depth < 2 else 3)
        if kind == 0:  # float assignment, new or existing name
            name = c.pick((self.fresh("a"), c.pick(self.floats)))
            fb.let(name, self.fexpr())
            self._define(name, self.floats)
        elif kind == 1:  # integer operators (int64 overflow included)
            name = self.fresh("n")
            fb.let(name, self.iexpr())
            self._define(name, self.ints)
            fname = self.fresh("a")
            fb.let(fname, call("__i2d", v(name)))
            self._define(fname, self.floats)
        elif kind == 2:  # unsafe ternaries lower to a branch
            name = self.fresh("a")
            arm = c.pick(
                (
                    call("__i2d", idiv(self.iexpr(1), self.divisor())),
                    aidx("T", self.index()),
                )
            )
            fb.let(name, ternary(self.cond(), arm, self.fexpr()))
            self._define(name, self.floats)
        elif kind == 3:  # instrumentation-style probe
            label = c.pick(LABELS)
            with fb.if_(lnot(in_set("L", label))):
                fb.record("probe", label)
                fb.let("w", self.fexpr())
                with fb.if_(eq(v("w"), num(0.0))):
                    fb.halt()
        elif kind == 4:  # if / else with scoped new names
            with fb.if_(self.cond()) as arm:
                self.scoped(fb, depth + 1)
                with arm.orelse():
                    self.scoped(fb, depth + 1)
        elif kind == 5:  # loop of up to 6 iterations
            i = self.fresh("i")
            fb.let(i, num(0.0))
            bound = call("fmod", call("fabs", self.fexpr()), num(6.0))
            with fb.while_(lt(v(i), bound)):
                self.scoped(fb, depth + 1)
                fb.let(i, fadd(v(i), num(1.0)))
        elif kind == 6:  # Return inside a branch of the entry
            with fb.if_(self.cond()):
                fb.ret(self.fexpr())
        elif kind in (7, 8):  # helpers: Halt and a global / Returns
            helper = "h_halt" if kind == 7 else "h_ret"
            name = self.fresh("a")
            fb.let(name, call(helper, self.fexpr()))
            self._define(name, self.floats)
        elif kind == 9:  # the helper twice, left-to-right effect order
            name = self.fresh("a")
            fb.let(
                name,
                fadd(
                    fadd(v("g"), call("h_halt", self.fexpr())),
                    call("h_halt", self.fexpr()),
                ),
            )
            self._define(name, self.floats)
        else:  # w from anything defined so far
            fb.let("w", fadd(v("w"), self.fexpr()))

    def scoped(self, fb, depth):
        """A nested block: names it defines are undefined afterwards on
        the lanes that skipped it, so they stay local to it."""
        saved = list(self.floats), list(self.ints)
        self.block(fb, depth)
        self.floats, self.ints = saved

    def _define(self, name, pool):
        if name not in pool:
            pool.append(name)


def helpers():
    halt = FunctionBuilder("h_halt", params=["a"])
    with halt.if_(gt(v("a"), num(1e300))):
        halt.halt()
    halt.let("g", fadd(v("g"), v("a")))
    halt.ret(fmul(v("a"), num(0.5)))
    ret = FunctionBuilder("h_ret", params=["a"])
    with ret.if_(lt(v("a"), num(0.0))):
        ret.ret(neg(v("a")))
    ret.let("i", num(0.0))
    with ret.while_(lt(v("i"), num(3.0))):
        with ret.if_(gt(v("a"), num(1e10))):
            ret.ret(v("a"))
        ret.let("a", fmul(v("a"), num(1e4)))
        ret.let("i", fadd(v("i"), num(1.0)))
    ret.ret(v("a"))
    return [halt.build(), ret.build()]


def build_program(choices: Choices, kinds=None) -> Program:
    gen = Gen(choices)
    fb = FunctionBuilder("f", params=["x", "y"])
    if kinds is None:
        gen.block(fb, 0)
    else:
        for kind in kinds:
            gen.stmt(fb, 0, kind)
    fb.let("w", fadd(v("w"), gen.nan_sign()))
    fb.ret(fadd(v("w"), gen.fexpr()))
    return Program(
        [fb.build(), *helpers()],
        entry="f",
        globals={"w": 0.0, "g": 0.0},
        arrays={"T": (1.5, -2.0, 0.25, 1e300)},
    )


inputs = st.one_of(
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308)),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def cases(draw):
    program = build_program(Choices(draw=draw))
    n = draw(st.integers(1, 6))
    X = np.array(
        [[draw(inputs), draw(inputs)] for _ in range(n)], dtype=np.float64
    )
    labels = draw(st.sets(st.sampled_from(LABELS)))
    return program, X, labels


# ---------------------------------------------------------------------------
# The scalar references
# ---------------------------------------------------------------------------

_INT64 = range(-(2**63), 2**63)


def _int64(value) -> int:
    """``int(value)``, faulting where an int64 lane could not hold it."""
    result = int(value)
    if result not in _INT64:
        raise OverflowError(f"{result} leaves int64")
    return result


class StrictInterpreter(Interpreter):
    """The reference interpreter, strict where the batch tier is.

    Integer operands and results must fit int64, and select-safe
    ternaries and ``and``/``or`` evaluate both sides (the batch runs
    them on every lane) — values are unchanged, since those sides
    have no effects.
    """

    def __init__(self, program):
        super().__init__(program)
        table = dict(self._bin_table)
        for op in INT_OPS:
            table[op] = self._strict(table[op])
        self._bin_table = table

    @staticmethod
    def _strict(fn):
        return lambda a, b: _int64(fn(_int64(a), _int64(b)))

    def _eval(self, expr, env, ctx):
        cls = expr.__class__
        functions = self.program.functions
        if (
            cls is Ternary
            and _select_safe(expr.then, functions)
            and _select_safe(expr.orelse, functions)
        ):
            cond = self._eval(expr.cond, env, ctx)
            then = self._eval(expr.then, env, ctx)
            orelse = self._eval(expr.orelse, env, ctx)
            return then if cond else orelse
        if (
            cls is BinOp
            and expr.op in ("and", "or")
            and _select_safe(expr.lhs, functions)
            and _select_safe(expr.rhs, functions)
        ):
            lhs = bool(self._eval(expr.lhs, env, ctx))
            rhs = bool(self._eval(expr.rhs, env, ctx))
            return (lhs and rhs) if expr.op == "and" else (lhs or rhs)
        if cls is UnOp and expr.op == "ineg":
            return _int64(-_int64(self._eval(expr.operand, env, ctx)))
        return super()._eval(expr, env, ctx)


def reference_lane(program, x, labels):
    """The strict interpreter's result for one point, None if it faults."""
    ctx = ExecutionContext(label_sets={"L": set(labels)})
    try:
        return StrictInterpreter(program).run(tuple(map(float, x)), ctx)
    except StepLimitExceeded:  # pragma: no cover - loops are bounded
        raise
    except Exception:
        return None


def compiled_exhausts(compiled, x, labels, budget) -> bool:
    rt = compiled.new_runtime(budget)
    rt.sets = {"L": set(labels)}
    try:
        compiled.run(tuple(map(float, x)), rt=rt)
    except StepLimitExceeded:
        return True
    return False


def same(lane_value, scalar) -> bool:
    """Bit equality for doubles (any NaN equals any NaN), value
    equality with matching kind for ints and bools."""
    if isinstance(scalar, bool):
        return lane_value.dtype == np.bool_ and bool(lane_value) == scalar
    if isinstance(scalar, int):
        return lane_value.dtype == np.int64 and int(lane_value) == scalar
    if lane_value.dtype != np.float64:
        return False
    got = float(lane_value)
    if math.isnan(got) or math.isnan(scalar):
        return math.isnan(got) and math.isnan(scalar)
    return struct.pack("<d", got) == struct.pack("<d", scalar)


def assert_lane_matches(result, lane, want, program):
    assert bool(result.halted[lane]) == want.halted, f"lane {lane}: halted"
    for name in program.globals:
        got = result.globals[name][lane]
        assert same(got, want.globals[name]), (
            f"lane {lane}: global {name} {got!r} != {want.globals[name]!r}"
        )
    if not want.halted:
        got = result.values[lane]
        assert same(got, want.value), f"lane {lane}: W {got!r} != {want.value!r}"


def check_against_scalar_tiers(program, X, labels):
    batch = compile_batch(program)
    want = [reference_lane(program, x, labels) for x in X]
    try:
        result = batch.run(X, label_sets={"L": set(labels)})
    except BatchExecutionError:
        assert any(w is None for w in want), "batch fault, no lane faults"
        return
    assert all(w is not None for w in want), "a faulting lane went unseen"
    assert not result.exhausted.any()
    for lane, w in enumerate(want):
        assert_lane_matches(result, lane, w, program)
    # The loop budget, against the compiled tier's iteration count.
    compiled = compile_program(program)
    small = batch.run(
        X, label_sets={"L": set(labels)}, max_loop_steps=SMALL_BUDGET
    )
    for lane, x in enumerate(X):
        exhausted = compiled_exhausts(compiled, x, labels, SMALL_BUDGET)
        assert bool(small.exhausted[lane]) == exhausted, f"lane {lane}"
        if not exhausted:
            assert_lane_matches(small, lane, want[lane], program)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@given(cases())
def test_generated_programs_match_scalar_tiers(case):
    check_against_scalar_tiers(*case)


@pytest.mark.slow
@settings(max_examples=1000)
@given(cases())
def test_generated_programs_match_scalar_tiers_long(case):
    check_against_scalar_tiers(*case)


def test_generator_reaches_every_op_and_control_kind():
    """Every statement kind once per program, over a few seeds: the
    compiled region trees together hold every op and control kind."""
    seen = set()
    for seed in range(12):
        program = build_program(Choices(seed=seed), kinds=range(11))
        seen |= emitted_kinds(compile_batch(program))
    assert (OPS | CONTROLS) - seen == set()
