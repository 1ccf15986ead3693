"""FPIR → Python compiler.

Weak-distance minimization evaluates the weak distance tens of thousands
of times per analysis; a tree-walking interpreter is too slow to be the
only executor.  This module plays the role of the paper's "LLVM pass +
native execution" pipeline: it code-generates an ordinary Python function
from an (already instrumented) FPIR program and ``exec``s it.  Because
Python floats are IEEE binary64 and all helpers follow C semantics
(:mod:`repro.fp.arith`), compiled execution is bit-identical to the
interpreter — a property the test suite checks differentially.

The compiled program shares the interpreter's runtime concepts:

* a :class:`CompiledRuntime` carrying globals, label sets, events and
  counters (so Algorithm 3 can grow its set ``L`` between rounds without
  recompiling), and
* the :class:`~repro.fpir.interpreter.HaltExecution` /
  :class:`~repro.fpir.interpreter.StepLimitExceeded` control exceptions.

A run counts events only on a runtime with a counter dict.  A plain
evaluation of W runs on one with ``counters = None``, so it executes
the instrumented arithmetic plus the last-event store that analyses
read; counting is a replay concern
(:meth:`repro.core.weak_distance.WeakDistance.replay`).

Algorithm 3's probe compiles fused.  The overflow instrumentation
(:func:`repro.analyses.overflow.overflow_spec`) emits, after each
labelled operation with assignee ``a``, the two statements::

    w = (fabs(a) < K) ? K - fabs(a) : z;      // K = DBL_MAX, z = 0.0
    if (w == 0.0) halt;

For that exact shape (``a`` a variable, ``K`` and ``z`` float
constants with ``z == 0.0``; :func:`_probe_parts`) the compiler emits
one ``fabs`` call and keeps the difference in a local instead of
reading ``w`` back::

    __w = K - fabs(a)
    if __w > 0.0: w = __w
    else: w = z; halt

The two are equal on every double ``a``.  For ``|a| < K`` both compute
the same ``K - |a|``, and it is positive: the exact difference of two
distinct doubles is at least 2^-1074, so it never rounds to 0.  For
``|a| >= K``, or a NaN ``a``, the comparison is false and the
difference is not positive, so both store ``z`` (a ``-0.0`` stays
``-0.0``) and halt.  The two ``K`` must compare equal, so neither is
NaN.  Any other shape compiles statement by statement.
The interpreter and the batch tier run the probe as written; they are
the references the compiled tier is checked against.

One accounting caveat: ``max_loop_steps`` budgets loop *iterations*
(``CompiledRuntime.check_loop`` is called once per iteration), while
the interpreter's ``max_steps`` budgets interpreted *statements* — a
coarser counter that trips earlier on straight-line-heavy loop bodies.
The batched tier (:mod:`repro.fpir.batch_eval`) mirrors the compiled
accounting, lane by lane.
"""

from __future__ import annotations

import dataclasses
import keyword
import math
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.fp import arith
from repro.fpir import externals
from repro.fpir.interpreter import (
    ExecutionResult,
    HaltExecution,
    InterpreterError,
    StepLimitExceeded,
)
from repro.fpir.nodes import (
    ArrayIndex,
    Assign,
    BinOp,
    Block,
    Call,
    Compare,
    Const,
    Expr,
    Halt,
    If,
    InLabelSet,
    RecordEvent,
    Return,
    Stmt,
    Ternary,
    UnOp,
    Var,
    While,
)
from repro.fpir.program import Program


class CompilationError(Exception):
    """The program contains a construct the compiler cannot translate."""


class CompiledRuntime:
    """Mutable runtime state threaded through compiled functions.

    ``events`` holds the last label per event kind.  ``counters`` counts
    each ``(kind, label)`` event while it is a dict (the default) and is
    skipped while it is None.
    """

    __slots__ = (
        "g",
        "sets",
        "events",
        "counters",
        "loop_steps",
        "max_loop_steps",
    )

    def __init__(self, max_loop_steps: int = 2_000_000) -> None:
        self.g: Dict[str, Any] = {}
        self.sets: Dict[str, Set[str]] = {}
        self.events: Dict[str, str] = {}
        self.counters: Optional[Dict[Tuple[str, str], int]] = {}
        self.loop_steps = 0
        self.max_loop_steps = max_loop_steps

    def label_set(self, name: str) -> Set[str]:
        return self.sets.setdefault(name, set())

    def check_loop(self) -> None:
        self.loop_steps += 1
        if self.loop_steps > self.max_loop_steps:
            raise StepLimitExceeded(
                f"exceeded {self.max_loop_steps} compiled loop iterations"
            )


_BIN_FMT = {
    "fadd": "({} + {})",
    "fsub": "({} - {})",
    "fmul": "({} * {})",
    "fdiv": "_fdiv({}, {})",
    "iadd": "({} + {})",
    "isub": "({} - {})",
    "imul": "({} * {})",
    "idiv": "_idiv({}, {})",
    "band": "({} & {})",
    "bor": "({} | {})",
    "bxor": "({} ^ {})",
    "shl": "({} << {})",
    "shr": "({} >> {})",
    "and": "({} and {})",
    "or": "({} or {})",
}

_CMP_FMT = {
    "lt": "({} < {})",
    "le": "({} <= {})",
    "gt": "({} > {})",
    "ge": "({} >= {})",
    "eq": "({} == {})",
    "ne": "({} != {})",
}


def _idiv(a: int, b: int) -> int:
    if b == 0:
        raise InterpreterError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _mangle(name: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if keyword.iskeyword(safe) or safe.startswith("__"):
        safe = "v_" + safe
    return safe


def _is_float_const(e: Expr) -> bool:
    return e.__class__ is Const and type(e.value) is float


def _is_fabs_of_var(e: Expr) -> bool:
    return (
        e.__class__ is Call
        and e.func == "fabs"
        and len(e.args) == 1
        and e.args[0].__class__ is Var
    )


def _probe_parts(assign: Stmt, check: Stmt) -> Optional[Tuple[Expr, Const]]:
    """``(K - fabs(a), Const(z))`` when ``assign; check`` is an overflow
    probe that compiles fused (see the module docstring), else None."""
    if assign.__class__ is not Assign or check.__class__ is not If:
        return None
    value = assign.expr
    if value.__class__ is not Ternary:
        return None
    less, difference, zero = value.cond, value.then, value.orelse
    if not (
        less.__class__ is Compare
        and less.op == "lt"
        and difference.__class__ is BinOp
        and difference.op == "fsub"
        and _is_fabs_of_var(less.lhs)
        and _is_fabs_of_var(difference.rhs)
        and less.lhs.args[0].name == difference.rhs.args[0].name
        and _is_float_const(less.rhs)
        and _is_float_const(difference.lhs)
        and less.rhs.value == difference.lhs.value
        and _is_float_const(zero)
        and zero.value == 0.0
    ):
        return None
    test = check.cond
    halts = check.then.stmts
    if not (
        test.__class__ is Compare
        and test.op == "eq"
        and test.lhs.__class__ is Var
        and test.lhs.name == assign.name
        and test.rhs.__class__ is Const
        and test.rhs.value == 0.0
        and len(halts) == 1
        and halts[0].__class__ is Halt
        and not check.orelse.stmts
    ):
        return None
    return difference, zero


class _FunctionEmitter:
    """Emits one FPIR function as Python source."""

    def __init__(self, compiler: "ProgramCompiler", fn_name: str) -> None:
        self.compiler = compiler
        self.fn_name = fn_name
        self.lines: List[str] = []
        #: Label set name -> the local it is bound to at function entry.
        self.set_locals: Dict[str, str] = {}
        self.records = False
        self.globals_used = False

    def emit(self, line: str, depth: int) -> None:
        self.lines.append("    " * depth + line)

    def global_ref(self, name: str) -> str:
        self.globals_used = True
        return f"__g[{name!r}]"

    def prologue(self) -> List[str]:
        """Function-entry bindings of the runtime state the body uses.

        A run never rebinds the runtime's dicts, and label sets only
        grow between runs (Algorithm 3's ``L``), never during one, so
        binding each once per call is exact.  A label set is one dict
        lookup; :meth:`CompiledRuntime.label_set` adds it only when it
        is missing.  The ``__`` prefix cannot clash with a mangled FPIR
        name.
        """
        lines = ["__g = _rt.g"] if self.globals_used else []
        if self.records:
            lines += ["__ev = _rt.events", "__ct = _rt.counters"]
        for name, local in self.set_locals.items():
            lines.append(f"{local} = _rt.sets.get({name!r})")
            lines.append(f"if {local} is None: {local} = _rt.label_set({name!r})")
        return ["    " + line for line in lines]

    # -- expressions --------------------------------------------------------

    def expr(self, e: Expr) -> str:
        cls = e.__class__
        if cls is Const:
            value = e.value
            if isinstance(value, float) and not math.isfinite(value):
                # repr() would emit a bare `inf`/`nan`: bind the object.
                return self.compiler.constant(value)
            return repr(value)
        if cls is Var:
            if e.name in self.compiler.global_names:
                return self.global_ref(e.name)
            return _mangle(e.name)
        if cls is BinOp:
            fmt = _BIN_FMT.get(e.op)
            if fmt is None:
                raise CompilationError(f"unknown operator {e.op!r}")
            return fmt.format(self.expr(e.lhs), self.expr(e.rhs))
        if cls is Compare:
            fmt = _CMP_FMT.get(e.op)
            if fmt is None:
                raise CompilationError(f"unknown comparison {e.op!r}")
            return fmt.format(self.expr(e.lhs), self.expr(e.rhs))
        if cls is UnOp:
            inner = self.expr(e.operand)
            if e.op in ("fneg", "ineg"):
                return f"(-{inner})"
            if e.op == "not":
                return f"(not {inner})"
            raise CompilationError(f"unknown unary operator {e.op!r}")
        if cls is Ternary:
            return "({} if {} else {})".format(
                self.expr(e.then), self.expr(e.cond), self.expr(e.orelse)
            )
        if cls is Call:
            args = ", ".join(self.expr(a) for a in e.args)
            if e.func in self.compiler.program.functions:
                return f"_fn_{_mangle(e.func)}(_rt{', ' if args else ''}{args})"
            if not externals.is_registered(e.func):
                raise CompilationError(f"unknown external {e.func!r}")
            self.compiler.used_externals.add(e.func)
            return f"_ext_{_mangle(e.func)}({args})"
        if cls is ArrayIndex:
            if e.name not in self.compiler.program.arrays:
                raise CompilationError(f"unknown constant array {e.name!r}")
            return f"_arr_{_mangle(e.name)}[{self.expr(e.index)}]"
        if cls is InLabelSet:
            local = self.set_locals.setdefault(
                e.set_name, f"__ls{len(self.set_locals)}"
            )
            return f"({e.label!r} in {local})"
        raise CompilationError(f"unknown expression {e!r}")

    # -- statements ---------------------------------------------------------

    def block(self, blk: Block, depth: int) -> None:
        stmts = blk.stmts
        if not stmts:
            self.emit("pass", depth)
            return
        i = 0
        while i < len(stmts):
            if i + 1 < len(stmts) and self.probe(stmts[i], stmts[i + 1], depth):
                i += 2
            else:
                self.stmt(stmts[i], depth)
                i += 1

    def target(self, name: str) -> str:
        """The Python target an assignment to ``name`` writes."""
        if name in self.compiler.global_names:
            return self.global_ref(name)
        return _mangle(name)

    def probe(self, assign: Stmt, check: Stmt, depth: int) -> bool:
        """Emit ``assign; check`` as one fused overflow probe when they
        are one (see the module docstring); False, emitting nothing,
        when they are not."""
        fused = _probe_parts(assign, check)
        if fused is None:
            return False
        difference, zero = fused
        target = self.target(assign.name)
        self.emit(f"__w = {self.expr(difference)}", depth)
        self.emit("if __w > 0.0:", depth)
        self.emit(f"{target} = __w", depth + 1)
        self.emit("else:", depth)
        self.emit(f"{target} = {self.expr(zero)}", depth + 1)
        self.emit("raise _HaltExecution()", depth + 1)
        return True

    def stmt(self, s: Stmt, depth: int) -> None:
        cls = s.__class__
        if cls is Assign:
            self.emit(f"{self.target(s.name)} = {self.expr(s.expr)}", depth)
        elif cls is If:
            self.emit(f"if {self.expr(s.cond)}:", depth)
            self.block(s.then, depth + 1)
            if s.orelse.stmts:
                self.emit("else:", depth)
                self.block(s.orelse, depth + 1)
        elif cls is While:
            self.emit(f"while {self.expr(s.cond)}:", depth)
            self.emit("_rt.check_loop()", depth + 1)
            self.block(s.body, depth + 1)
        elif cls is Return:
            if s.value is None:
                self.emit("return None", depth)
            else:
                self.emit(f"return {self.expr(s.value)}", depth)
        elif cls is Block:
            self.block(s, depth)
        elif cls is RecordEvent:
            # The last label per event kind, and a count per (kind, label)
            # only on a runtime that keeps counters (a replay's).
            self.records = True
            key = (s.kind, s.label)
            self.emit(f"__ev[{s.kind!r}] = {s.label!r}", depth)
            self.emit("if __ct is not None:", depth)
            self.emit(f"__ct[{key!r}] = __ct.get({key!r}, 0) + 1", depth + 1)
        elif cls is Halt:
            self.emit("raise _HaltExecution()", depth)
        else:
            raise CompilationError(f"unknown statement {s!r}")


class ProgramCompiler:
    """Compiles a whole :class:`Program` into Python source."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.global_names = set(program.globals)
        self.used_externals: Set[str] = set()
        #: Non-finite constants, bound as ``_k<i>`` in the namespace.
        self.constants: List[float] = []

    def constant(self, value: float) -> str:
        self.constants.append(value)
        return f"_k{len(self.constants) - 1}"

    def compile(self) -> "CompiledProgram":
        pieces: List[str] = []
        for fn in self.program.functions.values():
            emitter = _FunctionEmitter(self, fn.name)
            params = ", ".join(_mangle(p) for p in fn.param_names)
            header = f"def _fn_{_mangle(fn.name)}(_rt{', ' if params else ''}{params}):"
            emitter.emit(header, 0)
            if fn.body.stmts:
                emitter.block(fn.body, 1)
            else:
                emitter.emit("pass", 1)
            emitter.emit("return None", 1)
            emitter.lines[1:1] = emitter.prologue()
            pieces.append("\n".join(emitter.lines))
        source = "\n\n".join(pieces)

        namespace: Dict[str, Any] = {
            "_fdiv": arith.fdiv,
            "_idiv": _idiv,
            "_HaltExecution": HaltExecution,
        }
        for name in self.used_externals:
            namespace[f"_ext_{_mangle(name)}"] = externals.lookup(name)
        for name, values in self.program.arrays.items():
            namespace[f"_arr_{_mangle(name)}"] = tuple(values)
        for i, value in enumerate(self.constants):
            namespace[f"_k{i}"] = value
        exec(compile(source, "<fpir>", "exec"), namespace)
        entry = namespace[f"_fn_{_mangle(self.program.entry)}"]
        return CompiledProgram(self.program, source, entry)


@dataclasses.dataclass
class CompiledProgram:
    """A compiled FPIR program ready for repeated fast execution."""

    program: Program
    source: str
    #: The entry function: ``entry(rt, *args)`` runs against ``rt``.
    entry: Any

    def new_runtime(self, max_loop_steps: int = 2_000_000) -> CompiledRuntime:
        """A fresh runtime with globals seeded to their initial values."""
        rt = CompiledRuntime(max_loop_steps=max_loop_steps)
        rt.g.update(self.program.globals)
        return rt

    def run(
        self,
        args: Sequence[Any],
        rt: Optional[CompiledRuntime] = None,
        reset_globals: bool = True,
    ) -> ExecutionResult:
        """Execute the entry function, mirroring ``Interpreter.run``."""
        if rt is None:
            rt = self.new_runtime()
        if reset_globals:
            rt.g.update(self.program.globals)
        rt.loop_steps = 0
        halted = False
        value = None
        try:
            value = self.entry(rt, *args)
        except HaltExecution:
            halted = True
        return ExecutionResult(
            value=value,
            halted=halted,
            steps=rt.loop_steps,
            globals=dict(rt.g),
            events=dict(rt.events),
        )


def compile_program(program: Program) -> CompiledProgram:
    """Compile ``program`` to Python (see module docstring)."""
    return ProgramCompiler(program).compile()
