"""Content digests: identity-blind, order-preserving (repro.util.digest).

"Same program" means "same FPIR content": equal programs digest equal
however their frontends shared objects, and unequal ones digest apart,
including programs that differ only in function order or in the type
or bit pattern of a constant.  Dropping identity is safe because a
program's clone, which instrumentation rewrites, is rebuilt from the
same memo-free pickle: instrumenting an aliased program and its
un-aliased copy gives one instrumented program.
"""

import itertools
import math
import pickle
import struct
from pathlib import Path

import pytest

from repro.analyses.boundary import multiplicative_spec
from repro.analyses.overflow import overflow_spec
from repro.fpir.frontend import lower_source
from repro.fpir.instrument import instrument
from repro.fpir.nodes import BinOp, Block, Const, Return, SourceLoc, Var
from repro.fpir.program import Function, Param, Program
from repro.programs import get_program, list_programs
from repro.scan.classify import discover_functions
from repro.scan.store import program_digest
from repro.scan.walker import walk_source_files
from repro.util.digest import canonical_pickle, content_digest
from tests.fpir.test_batch_generated import Choices, build_program

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@pytest.fixture(scope="module")
def examples():
    """``(spec, program)`` for every lowerable function in examples/."""
    records = discover_functions(walk_source_files(str(EXAMPLES)))
    return [(r.spec, r.program) for r in records if r.lowerable]


def _same_content(a, b):
    """Dataclass equality, function order included."""
    return (
        a.entry == b.entry
        and list(a.functions.items()) == list(b.functions.items())
        and a.globals == b.globals
        and a.arrays == b.arrays
    )


def _unaliased(program):
    return pickle.loads(canonical_pickle(program))


def _const_program(value):
    body = Block((Return(BinOp("fmul", Var("x"), Const(value))),))
    return Program([Function("f", [Param("x")], body)], entry="f")


class TestExamplesCorpus:
    def test_equal_programs_digest_equal_and_unequal_apart(self, examples):
        for (spec_a, a), (spec_b, b) in itertools.combinations(examples, 2):
            same = program_digest(a) == program_digest(b)
            assert same == _same_content(a, b), (spec_a, spec_b)

    def test_twins_share_one_digest(self, examples):
        """Every C kernel digests like its Python twin: 44 lowerable
        functions, 21 twin pairs, 23 distinct programs."""
        c_side, py_side = {}, {}
        for spec, program in examples:
            path, _, name = spec.partition("::")
            side = c_side if path.endswith(".c") else py_side
            side[name] = program_digest(program)
        twins = c_side.keys() & py_side.keys()
        assert len(examples) == 44
        assert len(twins) == 21
        for name in twins:
            assert c_side[name] == py_side[name], name
        assert len({program_digest(p) for _, p in examples}) == 23


class TestWhatTheDigestSees:
    def test_function_order_matters(self, examples):
        """Labels are numbered in ``Program.functions`` order, so a
        reordered program is a different program: ``l1`` moves."""
        (program,) = [
            p for s, p in examples
            if s.endswith("gsl_twins.py::gsl_sf_bessel_J0_approx")
        ]
        assert len(program.functions) == 2
        reordered = Program(
            list(reversed(list(program.functions.values()))),
            entry=program.entry,
            globals=program.globals,
            arrays=program.arrays,
        )
        assert content_digest(reordered) != content_digest(program)
        first = instrument(program, overflow_spec()).index.fp_ops[0]
        moved = instrument(reordered, overflow_spec()).index.fp_ops[0]
        assert (first.function, first.text) != (moved.function, moved.text)

    def test_constant_types_and_bits_matter(self):
        bits = struct.pack("<Q", 0x7FF8000000000001)
        payload_nan = struct.unpack("<d", bits)[0]
        values = [0.0, -0.0, 1, 1.0, True, math.nan, payload_nan]
        digests = [content_digest(_const_program(v)) for v in values]
        assert len(set(digests)) == len(values)

    def test_source_locations_are_ignored(self):
        source = "def f(x):\n    return x * 2.0 + 1.0\n"
        a = lower_source(source, "f", filename="a.py")
        b = lower_source("\n\n\n" + source, "f", filename="b.py")
        assert program_digest(a) == program_digest(b)
        expr = b.functions["f"].body.stmts[0].value
        expr.loc = SourceLoc("elsewhere.c", 99, 7)
        assert program_digest(a) == program_digest(b)

    def test_object_identity_is_ignored(self):
        """Equal names held by distinct string objects digest alike,
        although a plain pickle's memo tells them apart."""
        name = "acc"
        copy = "".join(["ac", "c"])
        assert copy == name and copy is not name

        def program(second):
            body = Block((Return(BinOp("fadd", Var(name), Var(second))),))
            return Program([Function("f", [Param(name)], body)], entry="f")

        a, b = program(name), program(copy)
        assert pickle.dumps(a) != pickle.dumps(b)
        assert content_digest(a) == content_digest(b)


def _suite_programs():
    return [get_program(name) for name in list_programs()]


def _generated(n):
    return [build_program(Choices(seed=seed)) for seed in range(n)]


def _assert_unaliasing_is_invisible(programs):
    """Instrumenting a program and its un-aliased copy gives the same
    label index and the same instrumented program."""
    for program in programs:
        copy = _unaliased(program)
        for spec in (overflow_spec, multiplicative_spec):
            original = instrument(program, spec())
            unaliased = instrument(copy, spec())
            assert unaliased.index == original.index
            assert content_digest(unaliased.program) == content_digest(
                original.program
            )


class TestUnaliasingInvariant:
    def test_examples(self, examples):
        _assert_unaliasing_is_invisible(p for _, p in examples)

    def test_suite_programs(self):
        _assert_unaliasing_is_invisible(_suite_programs())

    def test_generated_programs(self):
        """The builder-API generator shares nodes between statements,
        so its programs are aliased for real."""
        programs = _generated(40)
        assert all(
            pickle.dumps(p) != pickle.dumps(_unaliased(p)) for p in programs
        )
        _assert_unaliasing_is_invisible(programs)

    @pytest.mark.slow
    def test_generated_programs_long(self):
        _assert_unaliasing_is_invisible(_generated(400))
