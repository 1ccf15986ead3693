"""FPIR abstract syntax: expressions and statements.

FPIR is a structured, C-like intermediate representation for the
floating-point programs the paper analyzes.  Design points:

* Every elementary floating-point operation (``fadd``, ``fsub``,
  ``fmul``, ``fdiv``) is a :class:`BinOp` that can carry a *label* —
  the paper's "instruction" granularity (``l1: t = fmul 4.0 nu``).
  Labels are assigned by :mod:`repro.fpir.labels` after the program has
  been normalized to three-address form by :mod:`repro.fpir.normalize`.
* Comparisons (:class:`Compare`) and branches (:class:`If`,
  :class:`While`) also carry labels; boundary value analysis instruments
  comparison sites, path reachability and branch coverage instrument
  branch sites.
* Three instrumentation-support constructs exist so that the weak
  distances of Section 4 can be expressed *inside* the IR:
  :class:`InLabelSet` (the runtime test ``l ∈ L`` of Algorithm 3),
  :class:`RecordEvent` (bookkeeping such as Algorithm 3's ``target``
  heuristic and the ``hits++`` soundness counters of Section 6.2), and
  :class:`Halt` (Algorithm 3's ``if (w == 0) return;`` early exit).

Nodes are plain dataclasses; the interpreter, compiler, printer and
rewriters dispatch on their classes.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Optional, Tuple, Union


class SourceLoc(NamedTuple):
    """Source position an expression was lowered from.

    ``line`` is 1-based, ``col`` 0-based (both frontends' convention).
    Locations are *advisory* metadata for diagnostics (``repro lint``):
    they are attached as a non-field attribute, excluded from pickling
    (so content digests ignore them — editing a comment must not
    invalidate the scan store, and a C kernel digests like its Python
    twin) and from dataclass equality (so the twins still lower to
    equal programs).
    """

    file: str
    line: int
    col: Optional[int] = None


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for FPIR expressions."""

    __slots__ = ()

    def __getstate__(self):
        # Strip the advisory `loc` attribute (see SourceLoc): pickles —
        # and therefore content digests and deep copies — depend only
        # on the semantic fields.
        state = self.__dict__
        if "loc" in state:
            state = {k: v for k, v in state.items() if k != "loc"}
        return state


@dataclasses.dataclass
class Const(Expr):
    """A literal constant (float, int, or bool)."""

    value: Union[float, int, bool]


@dataclasses.dataclass
class Var(Expr):
    """A reference to a local variable, parameter, or program global."""

    name: str


#: Float arithmetic operators — these are the paper's "elementary FP
#: operations" and the only operators that receive instruction labels.
FLOAT_OPS = ("fadd", "fsub", "fmul", "fdiv")

#: Integer operators (for bit-level code such as Glibc sin's dispatch).
INT_OPS = ("iadd", "isub", "imul", "idiv", "band", "bor", "bxor", "shl", "shr")

#: Boolean connectives.
BOOL_OPS = ("and", "or")


@dataclasses.dataclass
class BinOp(Expr):
    """A binary operation.  ``op`` is one of FLOAT_OPS/INT_OPS/BOOL_OPS.

    ``label`` is non-None only for float operations after label
    assignment, and identifies the operation for overflow detection.
    """

    op: str
    lhs: Expr
    rhs: Expr
    label: Optional[str] = None


#: Comparison operators, ordered IEEE semantics (any compare with NaN
#: is false, mirroring C).
CMP_OPS = ("lt", "le", "gt", "ge", "eq", "ne")


@dataclasses.dataclass
class Compare(Expr):
    """A comparison ``lhs ⊳ rhs`` producing a bool.

    Comparison sites define the paper's *boundary conditions*
    (Instance 1): the boundary of ``a < b`` is ``a == b``.
    """

    op: str
    lhs: Expr
    rhs: Expr
    label: Optional[str] = None


@dataclasses.dataclass
class UnOp(Expr):
    """A unary operation: ``fneg``, ``ineg``, ``not``."""

    op: str
    operand: Expr


@dataclasses.dataclass
class Call(Expr):
    """A call to another FPIR function or a registered external.

    FPIR-internal callees are looked up in the enclosing
    :class:`~repro.fpir.program.Program`; everything else resolves in
    :mod:`repro.fpir.externals` (``sqrt``, ``sin``, ``__hi`` ...).
    """

    func: str
    args: Tuple[Expr, ...]

    def __post_init__(self) -> None:
        self.args = tuple(self.args)


@dataclasses.dataclass
class Ternary(Expr):
    """C's conditional expression ``cond ? then : orelse``.

    Evaluation is short-circuit: only the selected arm runs.  The
    normalizer therefore never hoists operations out of ternary arms.
    """

    cond: Expr
    then: Expr
    orelse: Expr


@dataclasses.dataclass
class ArrayIndex(Expr):
    """Read-only access ``name[index]`` into a program constant array.

    Constant arrays hold Chebyshev coefficient tables for the GSL ports.
    """

    name: str
    index: Expr


@dataclasses.dataclass
class InLabelSet(Expr):
    """Instrumentation expression: is ``label`` in the runtime set ``set_name``?

    Algorithm 3's injected guard ``if (l is not in L)`` is expressed as
    ``UnOp('not', InLabelSet('L', l))``.  The sets live in the execution
    context and may be mutated between runs without re-instrumenting.
    """

    set_name: str
    label: str


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class for FPIR statements."""

    __slots__ = ()


@dataclasses.dataclass
class Assign(Stmt):
    """``name = expr``.  Targets a global iff ``name`` is declared global."""

    name: str
    expr: Expr


@dataclasses.dataclass
class If(Stmt):
    """A two-armed conditional.  ``label`` identifies the branch site."""

    cond: Expr
    then: "Block"
    orelse: "Block"
    label: Optional[str] = None


@dataclasses.dataclass
class While(Stmt):
    """A while loop.  ``label`` identifies the branch site of its test."""

    cond: Expr
    body: "Block"
    label: Optional[str] = None


@dataclasses.dataclass
class Return(Stmt):
    """Return from the current function (``value`` may be None)."""

    value: Optional[Expr] = None


@dataclasses.dataclass
class Block(Stmt):
    """A statement sequence."""

    stmts: Tuple[Stmt, ...]

    def __post_init__(self) -> None:
        self.stmts = tuple(self.stmts)

    def __iter__(self):
        return iter(self.stmts)

    def __len__(self) -> int:
        return len(self.stmts)


@dataclasses.dataclass
class RecordEvent(Stmt):
    """Instrumentation statement: record ``(kind, label)`` in the runtime.

    Used for Algorithm 3's ``target`` heuristic (the last executed,
    not-yet-covered probe), for branch-coverage bookkeeping, and for the
    ``hits++`` counters of the paper's soundness check (Section 6.2).
    """

    kind: str
    label: str


@dataclasses.dataclass
class Halt(Stmt):
    """Instrumentation statement: stop the whole execution immediately.

    Models Algorithm 3's injected ``if (w == 0) return;``.  (The paper's
    C ``return`` unwinds one frame; halting the entire run is equivalent
    for the value of ``w`` because the probe that zeroed ``w`` is
    terminal either way — see DESIGN.md §6.)
    """


def block(*stmts: Stmt) -> Block:
    """Convenience constructor for :class:`Block`."""
    return Block(tuple(stmts))
