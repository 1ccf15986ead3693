"""The compiled tier's fused overflow probe (``fpir.compiler``).

Algorithm 3's probe ``w = (|a| < K) ? K - |a| : z; if (w == 0) halt``
compiles to one ``fabs`` call and a local difference.  The interpreter
runs the probe as written, so it is the reference: these tests compare
the compiled overflow W with it point by point, at IEEE special
operands, and pin which shapes fuse.
"""

import math
import struct

import numpy as np
import pytest

from repro.analyses.overflow import L_SET, overflow_spec
from repro.core.weak_distance import WeakDistance
from repro.fp.ieee import DBL_MAX
from repro.fpir.compiler import compile_program
from repro.fpir.instrument import instrument
from repro.fpir.nodes import (
    Assign,
    BinOp,
    Block,
    Call,
    Compare,
    Const,
    Halt,
    If,
    RecordEvent,
    Return,
    Ternary,
    Var,
)
from repro.fpir.program import Function, Param, Program
from repro.fpir.types import DOUBLE
from repro.programs import get_program, list_programs

#: Operands at the probe's edges: zeros, subnormals, ones, the largest
#: doubles below and at ``DBL_MAX``, infinities and NaN.
SPECIALS = (
    0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0,
    math.nextafter(DBL_MAX, 0.0), -math.nextafter(DBL_MAX, 0.0),
    DBL_MAX, -DBL_MAX, math.inf, -math.inf, math.nan,
)


def _points(n_inputs, seed):
    """Every special in every coordinate (the others random), plus
    random wide-magnitude points."""
    rng = np.random.default_rng(seed)

    def wide(n):
        signs = rng.choice((-1.0, 1.0), size=(n, n_inputs))
        return signs * 10.0 ** rng.uniform(-310.0, 309.0, size=(n, n_inputs))

    points = []
    for k in range(n_inputs):
        for special in SPECIALS:
            row = wide(1)[0]
            row[k] = special
            points.append(tuple(map(float, row)))
    points.extend(tuple(map(float, row)) for row in wide(60))
    points.append(tuple(DBL_MAX for _ in range(n_inputs)))
    return points


def _same(got, want):
    """Equal bits for floats (NaN sign and payload included), equality
    otherwise."""
    if isinstance(got, float) and isinstance(want, float):
        return struct.pack("<d", got) == struct.pack("<d", want)
    return got == want


@pytest.mark.parametrize("name", list(list_programs()))
def test_compiled_overflow_w_matches_the_interpreter(name):
    """Value bits, the halt flag and the last events of the compiled
    overflow W equal the interpreter's, with ``L`` empty, half full and
    full."""
    instrumented = instrument(get_program(name), overflow_spec())
    fast = WeakDistance(instrumented, eval_mode="compiled")
    slow = WeakDistance(instrumented, eval_mode="interpreter")
    labels = sorted(site.label for site in instrumented.index.fp_ops)
    points = _points(fast.program.num_inputs, seed=len(name))
    for fill in (0.0, 0.5, 1.0):
        covered = set(labels[: int(len(labels) * fill)])
        for wd in (fast, slow):
            wd.label_sets[L_SET].clear()
            wd.label_sets[L_SET].update(covered)
        for x in points:
            context = (name, len(covered), x)
            got, want = fast(x), slow(x)
            assert _same(got, want), context
            assert fast.last_events == slow.last_events, context
            got_run, want_run = fast.execute(x), slow.execute(x)
            assert got_run.halted == want_run.halted, context
            got_w = got_run.globals[instrumented.w_var]
            want_w = want_run.globals[instrumented.w_var]
            assert _same(got_w, want_w), context
            assert got_run.events == want_run.events, context


def _probe_program(assign, check, operand="a"):
    """``f(x)``: ``a = x + 1.0``, then the given two statements with the
    global ``w`` (initially 1.0), then ``return a``."""
    body = Block(
        (
            Assign("a", BinOp("fadd", Var("x"), Const(1.0))),
            RecordEvent("probe", "l1"),
            assign,
            check,
            Return(Var(operand)),
        )
    )
    return Program(
        [Function("f", [Param("x", DOUBLE)], body)],
        entry="f",
        globals={"w": 1.0},
    )


def _probe(operand=Var("a"), zero=0.0):
    fabs = Call("fabs", (operand,))
    return Assign(
        "w",
        Ternary(
            Compare("lt", fabs, Const(DBL_MAX)),
            BinOp("fsub", Const(DBL_MAX), fabs),
            Const(zero),
        ),
    )


def _halt_if_zero(then=(Halt(),), orelse=()):
    return If(Compare("eq", Var("w"), Const(0.0)), Block(then), Block(orelse))


def _agree(program, xs=(0.5, -2.0, 1e308, DBL_MAX, -math.inf, math.nan)):
    """Compiled and interpreted runs agree on every ``x``."""
    from repro.fpir.interpreter import Interpreter

    compiled = compile_program(program)
    interpreter = Interpreter(program)
    for x in xs:
        got, want = compiled.run((x,)), interpreter.run((x,))
        assert got.halted == want.halted, x
        assert _same(got.globals["w"], want.globals["w"]), x
    return compiled.source


def test_a_negative_zero_constant_is_kept():
    program = _probe_program(_probe(zero=-0.0), _halt_if_zero())
    source = _agree(program)
    assert "__w = " in source
    result = compile_program(program).run((DBL_MAX,))
    assert result.halted
    assert result.globals["w"].hex() == "-0x0.0p+0"


@pytest.mark.parametrize(
    "assign, check",
    [
        # The operand is an expression, not a variable.
        (_probe(operand=BinOp("fmul", Var("a"), Const(2.0))), _halt_if_zero()),
        # The If does more than halt, or has an else arm.
        (_probe(), _halt_if_zero(then=(RecordEvent("seen", "l1"), Halt()))),
        (_probe(), _halt_if_zero(orelse=(Assign("w", Const(2.0)),))),
        # The If tests another variable.
        (
            _probe(),
            If(Compare("eq", Var("a"), Const(0.0)), Block((Halt(),)), Block(())),
        ),
        # The ternary's constant is not a zero.
        (_probe(zero=1.0), _halt_if_zero()),
    ],
    ids=["expression-operand", "longer-body", "else-arm", "other-variable", "nonzero"],
)
def test_other_shapes_are_left_unfused(assign, check):
    source = _agree(_probe_program(assign, check))
    assert "__w" not in source
    assert source.count("_ext_fabs(") == 2


def test_every_gsl_airy_probe_is_fused():
    """One ``fabs`` call per probe: the instrumented program calls
    ``fabs`` once more per probe than the program itself does."""
    program = get_program("gsl-airy")
    instrumented = instrument(program, overflow_spec())
    n_probes = len(instrumented.index.fp_ops)
    source = WeakDistance(instrumented)._ensure_compiled().source
    plain = compile_program(program).source
    assert source.count("__w = ") == n_probes
    assert source.count("_ext_fabs(") == plain.count("_ext_fabs(") + n_probes
