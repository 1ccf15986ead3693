"""Lowering FPIR to a flat instruction stream for batched evaluation.

The scalar tiers execute one candidate point at a time: the reference
interpreter (:mod:`repro.fpir.interpreter`) walks the tree, the
compiler (:mod:`repro.fpir.compiler`) generates Python source.  The
*batched* tier evaluates an ``(N, d)`` block of candidate points in one
call (:mod:`repro.fpir.batch_eval`); this module provides its program
representation — a flat tuple of instruction dataclasses operating on
an unbounded virtual register file ("slots"), with control flow encoded
as index ranges instead of a tree.

Design invariants
-----------------

* **Structured targets, not arbitrary jumps.**  Masked-lane (SIMT)
  evaluation needs to know which region of the stream a diverged lane
  rejoins; :class:`Branch`, :class:`Loop` and :class:`Frame` therefore
  carry explicit ``[start, end)`` ranges over the flat stream rather
  than goto-style targets.  Every range nests properly.
* **Three-address form.**  Every expression value lands in a fresh slot
  exactly once; only *named* variables (locals and globals) are stored
  through :class:`StoreSlot`, which the evaluator merges under the
  active-lane mask.  Temporaries never need masking because they are
  written and read under the same mask.
* **Left-to-right effect order.**  FPIR expressions are pure except for
  calls to program functions (which may assign globals).  When an
  operand to the *right* of a variable reference contains such a call,
  the variable is copied into a temporary first so the batch tier
  observes the same value the scalar tiers do.
* **Calls are inlined.**  Each call site clones the callee with fresh
  slots; a :class:`Frame` region gives ``Return`` its per-lane scope.
  Recursion therefore cannot be lowered and raises
  :class:`BatchCompilationError` — callers fall back to a scalar tier.

Constructs the batched tier refuses (``BatchCompilationError``) rather
than risking silent semantic drift: recursive calls, unknown externals,
and externals whose results exceed the ``int64`` range the vectorized
integer lanes use (``__double_to_bits``).  Everything else in
:mod:`repro.fpir.nodes` lowers, including instrumentation constructs
(``InLabelSet`` becomes a lane-constant set probe; ``RecordEvent`` is
kept in the stream but is a no-op under batch evaluation — event and
counter observation is a scalar-replay concern, see
:mod:`repro.fpir.batch_eval`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple, Union

from repro.fpir import externals
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
    INT_OPS,
    RecordEvent,
    Return,
    Stmt,
    Ternary,
    UnOp,
    Var,
    While,
)
from repro.fpir.program import Function, Program


class BatchCompilationError(Exception):
    """The program uses a construct the batched tier cannot lower.

    This is a *capability* signal, not a bug: callers (notably
    :class:`repro.core.weak_distance.WeakDistance`) catch it and fall
    back to the scalar compiler, which supports all of FPIR.
    """


#: Externals whose scalar results do not fit the int64 lanes the
#: vectorized evaluator uses for integer values.  Programs calling them
#: fall back to the scalar tiers.
REJECTED_EXTERNALS = frozenset({"__double_to_bits"})


# ---------------------------------------------------------------------------
# Instruction set
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Instr:
    """Base class for flat-stream instructions."""


@dataclasses.dataclass(frozen=True)
class LoadConst(Instr):
    """``slots[dest] = value`` broadcast across all lanes."""

    dest: int
    value: Union[float, int, bool]


@dataclasses.dataclass(frozen=True)
class CopySlot(Instr):
    """``slots[dest] = slots[src]`` (unmasked; param passing and
    effect-order snapshots)."""

    dest: int
    src: int


@dataclasses.dataclass(frozen=True)
class StoreSlot(Instr):
    """Masked store to a *named* variable's slot.

    Lanes outside the active mask keep their previous value; the first
    store a slot ever sees initializes every lane (a lane that reads a
    named variable before its own store would be an undefined-variable
    error in the scalar tiers).
    """

    slot: int
    src: int


@dataclasses.dataclass(frozen=True)
class UnaryInstr(Instr):
    """``fneg`` / ``ineg`` / ``not`` into a fresh slot."""

    dest: int
    op: str
    src: int


@dataclasses.dataclass(frozen=True)
class BinaryInstr(Instr):
    """A FLOAT_OPS / INT_OPS binary operation into a fresh slot."""

    dest: int
    op: str
    lhs: int
    rhs: int


@dataclasses.dataclass(frozen=True)
class CompareInstr(Instr):
    """``lt/le/gt/ge/eq/ne`` into a fresh (boolean) slot."""

    dest: int
    op: str
    lhs: int
    rhs: int


@dataclasses.dataclass(frozen=True)
class BoolInstr(Instr):
    """Non-short-circuit ``and`` / ``or`` over boolean-coerced operands.

    Only emitted when both operands are *select-safe* (cannot fault);
    otherwise the lowerer desugars to a :class:`Branch` to preserve the
    scalar tiers' short-circuit behaviour.
    """

    dest: int
    op: str
    lhs: int
    rhs: int


@dataclasses.dataclass(frozen=True)
class SelectInstr(Instr):
    """``slots[dest] = cond ? then : orelse`` with both arms evaluated.

    Only emitted for select-safe arms (pure arithmetic / quiet
    externals); arms that can fault (array indexing, integer division,
    program calls) lower to a :class:`Branch` instead.
    """

    dest: int
    cond: int
    then: int
    orelse: int


@dataclasses.dataclass(frozen=True)
class ExternalInstr(Instr):
    """Call a registered external; vectorized or lane-wise in the
    evaluator."""

    dest: int
    name: str
    args: Tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class GatherInstr(Instr):
    """``slots[dest] = arrays[array][slots[index]]`` with per-active-lane
    bounds checking."""

    dest: int
    array: str
    index: int


@dataclasses.dataclass(frozen=True)
class SetMemberInstr(Instr):
    """``InLabelSet`` probe: a lane-constant boolean (label sets are
    fixed for the duration of one batch call)."""

    dest: int
    set_name: str
    label: str


@dataclasses.dataclass(frozen=True)
class EventInstr(Instr):
    """``RecordEvent`` marker.  Kept in the stream for disassembly but a
    no-op under batch evaluation (events/counters are scalar-replay
    observations)."""

    kind: str
    label: str


@dataclasses.dataclass(frozen=True)
class HaltInstr(Instr):
    """Stop the active lanes' whole run (their state is frozen)."""


@dataclasses.dataclass(frozen=True)
class ReturnInstr(Instr):
    """Return from the innermost :class:`Frame` on the active lanes."""

    src: Optional[int]


@dataclasses.dataclass(frozen=True)
class Branch(Instr):
    """``if``: then-region ``[pc+1, else_start)``, else-region
    ``[else_start, join)``; execution resumes at ``join``."""

    cond: int
    else_start: int
    join: int


@dataclasses.dataclass(frozen=True)
class Loop(Instr):
    """``while``: condition code ``[pc+1, cond_end)`` leaving its value
    in ``cond``, body ``[cond_end, end)``; resumes at ``end``.

    Each executed body iteration charges one unit against the per-lane
    loop budget, mirroring ``CompiledRuntime.check_loop``.
    """

    cond_end: int
    cond: int
    end: int


@dataclasses.dataclass(frozen=True)
class Frame(Instr):
    """An inlined function body ``[pc+1, end)`` with its own per-lane
    return scope; the return value lands in ``ret``."""

    end: int
    ret: int


# ---------------------------------------------------------------------------
# Lowered program
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class VMProgram:
    """A lowered FPIR program: flat code plus its runtime layout."""

    code: Tuple[Instr, ...]
    n_slots: int
    param_slots: Tuple[int, ...]
    result_slot: int
    global_slots: Dict[str, int]
    global_inits: Dict[str, Union[float, int]]
    arrays: Dict[str, Tuple[float, ...]]
    entry: str

    def disassemble(self) -> str:
        """Human-readable listing (tests and debugging)."""
        lines = []
        for pc, instr in enumerate(self.code):
            fields = ", ".join(
                f"{f.name}={getattr(instr, f.name)!r}"
                for f in dataclasses.fields(instr)
            )
            lines.append(f"{pc:4d}  {type(instr).__name__}({fields})")
        return "\n".join(lines)


def _contains_user_call(expr: Expr, functions: Dict[str, Function]) -> bool:
    """Can evaluating ``expr`` mutate globals (via a program call)?"""
    cls = expr.__class__
    if cls is Call:
        if expr.func in functions:
            return True
        return any(_contains_user_call(a, functions) for a in expr.args)
    if cls is BinOp or cls is Compare:
        return _contains_user_call(expr.lhs, functions) or _contains_user_call(
            expr.rhs, functions
        )
    if cls is UnOp:
        return _contains_user_call(expr.operand, functions)
    if cls is Ternary:
        return (
            _contains_user_call(expr.cond, functions)
            or _contains_user_call(expr.then, functions)
            or _contains_user_call(expr.orelse, functions)
        )
    if cls is ArrayIndex:
        return _contains_user_call(expr.index, functions)
    return False


def _select_safe(expr: Expr, functions: Dict[str, Function]) -> bool:
    """Can ``expr`` be evaluated on lanes whose scalar counterpart would
    not evaluate it (both arms of a select, the RHS of ``and``/``or``)?

    Safe means "cannot fault and has no side effects": float
    arithmetic, comparisons, externals (all registered externals are
    quiet), label-set probes.  Array indexing (bounds), every integer
    operator (int64 overflow, a zero divisor, a negative shift count,
    a float operand outside int64) and program calls are unsafe and
    force branch lowering.
    """
    cls = expr.__class__
    if cls is Const or cls is Var or cls is InLabelSet:
        return True
    if cls is BinOp:
        if expr.op in INT_OPS:
            return False
        return _select_safe(expr.lhs, functions) and _select_safe(
            expr.rhs, functions
        )
    if cls is Compare:
        return _select_safe(expr.lhs, functions) and _select_safe(
            expr.rhs, functions
        )
    if cls is UnOp:
        if expr.op == "ineg":
            return False
        return _select_safe(expr.operand, functions)
    if cls is Ternary:
        return (
            _select_safe(expr.cond, functions)
            and _select_safe(expr.then, functions)
            and _select_safe(expr.orelse, functions)
        )
    if cls is Call:
        if expr.func in functions:
            return False
        return all(_select_safe(a, functions) for a in expr.args)
    return False  # ArrayIndex, unknown nodes


class _Lowerer:
    """One-shot lowering of a :class:`Program` to a :class:`VMProgram`."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.code: List[Instr] = []
        self.n_slots = 0
        self.named_slots: set = set()
        self.global_slots: Dict[str, int] = {}
        for name in program.globals:
            self.global_slots[name] = self._new_slot(named=True)

    # -- slots ---------------------------------------------------------------

    def _new_slot(self, named: bool = False) -> int:
        slot = self.n_slots
        self.n_slots += 1
        if named:
            self.named_slots.add(slot)
        return slot

    def _emit(self, instr: Instr) -> int:
        self.code.append(instr)
        return len(self.code) - 1

    # -- entry ---------------------------------------------------------------

    def lower(self) -> VMProgram:
        entry = self.program.entry_function
        param_slots = tuple(self._new_slot(named=True) for _ in entry.params)
        result_slot = self._emit_call_body(
            entry, list(param_slots), stack=(entry.name,)
        )
        return VMProgram(
            code=tuple(self.code),
            n_slots=self.n_slots,
            param_slots=param_slots,
            result_slot=result_slot,
            global_slots=dict(self.global_slots),
            global_inits=dict(self.program.globals),
            arrays=dict(self.program.arrays),
            entry=self.program.entry,
        )

    def _emit_call_body(
        self, fn: Function, arg_slots: List[int], stack: Tuple[str, ...]
    ) -> int:
        """Inline ``fn``'s body inside a :class:`Frame`; returns the
        slot holding its return value."""
        env: Dict[str, int] = {}
        for name, arg in zip(fn.param_names, arg_slots):
            slot = self._new_slot(named=True)
            self._emit(CopySlot(dest=slot, src=arg))
            env[name] = slot
        ret_slot = self._new_slot(named=True)
        frame_pc = self._emit(Frame(end=-1, ret=ret_slot))
        self._emit_block(fn.body, env, stack)
        self.code[frame_pc] = Frame(end=len(self.code), ret=ret_slot)
        return ret_slot

    # -- statements ----------------------------------------------------------

    def _emit_block(
        self, blk: Block, env: Dict[str, int], stack: Tuple[str, ...]
    ) -> None:
        for stmt in blk.stmts:
            self._emit_stmt(stmt, env, stack)

    def _emit_stmt(
        self, stmt: Stmt, env: Dict[str, int], stack: Tuple[str, ...]
    ) -> None:
        cls = stmt.__class__
        if cls is Assign:
            src = self._emit_expr(stmt.expr, env, stack)
            # Globals shadow locals on assignment, matching the
            # interpreter's `name in ctx.globals` check.
            if stmt.name in self.global_slots:
                slot = self.global_slots[stmt.name]
            elif stmt.name in env:
                slot = env[stmt.name]
            else:
                slot = self._new_slot(named=True)
                env[stmt.name] = slot
            self._emit(StoreSlot(slot=slot, src=src))
        elif cls is If:
            cond = self._emit_expr(stmt.cond, env, stack)
            branch_pc = self._emit(Branch(cond=cond, else_start=-1, join=-1))
            self._emit_block(stmt.then, env, stack)
            else_start = len(self.code)
            self._emit_block(stmt.orelse, env, stack)
            join = len(self.code)
            self.code[branch_pc] = Branch(
                cond=cond, else_start=else_start, join=join
            )
        elif cls is While:
            loop_pc = self._emit(Loop(cond_end=-1, cond=-1, end=-1))
            cond = self._emit_expr(stmt.cond, env, stack)
            cond_end = len(self.code)
            self._emit_block(stmt.body, env, stack)
            end = len(self.code)
            self.code[loop_pc] = Loop(cond_end=cond_end, cond=cond, end=end)
        elif cls is Return:
            src = (
                self._emit_expr(stmt.value, env, stack)
                if stmt.value is not None
                else None
            )
            self._emit(ReturnInstr(src=src))
        elif cls is Block:
            self._emit_block(stmt, env, stack)
        elif cls is RecordEvent:
            self._emit(EventInstr(kind=stmt.kind, label=stmt.label))
        elif cls is Halt:
            self._emit(HaltInstr())
        else:
            raise BatchCompilationError(f"unknown statement {stmt!r}")

    # -- expressions ---------------------------------------------------------

    def _emit_expr(
        self, expr: Expr, env: Dict[str, int], stack: Tuple[str, ...]
    ) -> int:
        cls = expr.__class__
        if cls is Const:
            dest = self._new_slot()
            self._emit(LoadConst(dest=dest, value=expr.value))
            return dest
        if cls is Var:
            if expr.name in env:
                return env[expr.name]
            if expr.name in self.global_slots:
                return self.global_slots[expr.name]
            raise BatchCompilationError(f"undefined variable {expr.name!r}")
        if cls is BinOp:
            if expr.op in ("and", "or"):
                return self._emit_boolop(expr, env, stack)
            lhs = self._emit_operand(expr.lhs, expr.rhs, env, stack)
            rhs = self._emit_expr(expr.rhs, env, stack)
            dest = self._new_slot()
            self._emit(BinaryInstr(dest=dest, op=expr.op, lhs=lhs, rhs=rhs))
            return dest
        if cls is Compare:
            lhs = self._emit_operand(expr.lhs, expr.rhs, env, stack)
            rhs = self._emit_expr(expr.rhs, env, stack)
            dest = self._new_slot()
            self._emit(CompareInstr(dest=dest, op=expr.op, lhs=lhs, rhs=rhs))
            return dest
        if cls is UnOp:
            src = self._emit_expr(expr.operand, env, stack)
            dest = self._new_slot()
            self._emit(UnaryInstr(dest=dest, op=expr.op, src=src))
            return dest
        if cls is Ternary:
            return self._emit_ternary(expr, env, stack)
        if cls is Call:
            return self._emit_call(expr, env, stack)
        if cls is ArrayIndex:
            if expr.name not in self.program.arrays:
                raise BatchCompilationError(
                    f"unknown constant array {expr.name!r}"
                )
            index = self._emit_expr(expr.index, env, stack)
            dest = self._new_slot()
            self._emit(GatherInstr(dest=dest, array=expr.name, index=index))
            return dest
        if cls is InLabelSet:
            dest = self._new_slot()
            self._emit(
                SetMemberInstr(
                    dest=dest, set_name=expr.set_name, label=expr.label
                )
            )
            return dest
        raise BatchCompilationError(f"unknown expression {expr!r}")

    def _emit_operand(
        self,
        expr: Expr,
        later: Expr,
        env: Dict[str, int],
        stack: Tuple[str, ...],
    ) -> int:
        """Lower a left operand, snapshotting named slots when a later
        sibling operand can mutate globals (left-to-right order)."""
        slot = self._emit_expr(expr, env, stack)
        if slot in self.named_slots and _contains_user_call(
            later, self.program.functions
        ):
            fresh = self._new_slot()
            self._emit(CopySlot(dest=fresh, src=slot))
            return fresh
        return slot

    def _emit_boolop(
        self, expr: BinOp, env: Dict[str, int], stack: Tuple[str, ...]
    ) -> int:
        functions = self.program.functions
        if _select_safe(expr.lhs, functions) and _select_safe(
            expr.rhs, functions
        ):
            lhs = self._emit_expr(expr.lhs, env, stack)
            rhs = self._emit_expr(expr.rhs, env, stack)
            dest = self._new_slot()
            self._emit(BoolInstr(dest=dest, op=expr.op, lhs=lhs, rhs=rhs))
            return dest
        # Desugar to the short-circuit form so unsafe operands only run
        # on the lanes the scalar tiers would run them on:
        #   a and b  ==  a ? bool(b) : False
        #   a or b   ==  a ? True : bool(b)
        to_bool = lambda e: UnOp("not", UnOp("not", e))  # noqa: E731
        if expr.op == "and":
            desugared = Ternary(expr.lhs, to_bool(expr.rhs), Const(False))
        else:
            desugared = Ternary(expr.lhs, Const(True), to_bool(expr.rhs))
        return self._emit_ternary(desugared, env, stack)

    def _emit_ternary(
        self, expr: Ternary, env: Dict[str, int], stack: Tuple[str, ...]
    ) -> int:
        functions = self.program.functions
        if _select_safe(expr.then, functions) and _select_safe(
            expr.orelse, functions
        ):
            cond = self._emit_expr(expr.cond, env, stack)
            then = self._emit_expr(expr.then, env, stack)
            orelse = self._emit_expr(expr.orelse, env, stack)
            dest = self._new_slot()
            self._emit(
                SelectInstr(dest=dest, cond=cond, then=then, orelse=orelse)
            )
            return dest
        # Unsafe arms run under a branch so only the lanes that select
        # an arm evaluate it (array bounds, idiv-by-zero, calls).
        result = self._new_slot(named=True)
        cond = self._emit_expr(expr.cond, env, stack)
        branch_pc = self._emit(Branch(cond=cond, else_start=-1, join=-1))
        then = self._emit_expr(expr.then, env, stack)
        self._emit(StoreSlot(slot=result, src=then))
        else_start = len(self.code)
        orelse = self._emit_expr(expr.orelse, env, stack)
        self._emit(StoreSlot(slot=result, src=orelse))
        join = len(self.code)
        self.code[branch_pc] = Branch(
            cond=cond, else_start=else_start, join=join
        )
        return result

    def _emit_call(
        self, expr: Call, env: Dict[str, int], stack: Tuple[str, ...]
    ) -> int:
        arg_slots: List[int] = []
        for pos, arg in enumerate(expr.args):
            later = expr.args[pos + 1 :]
            slot = self._emit_expr(arg, env, stack)
            if slot in self.named_slots and any(
                _contains_user_call(a, self.program.functions) for a in later
            ):
                fresh = self._new_slot()
                self._emit(CopySlot(dest=fresh, src=slot))
                slot = fresh
            arg_slots.append(slot)
        if expr.func in self.program.functions:
            if expr.func in stack:
                raise BatchCompilationError(
                    f"recursive call to {expr.func!r} cannot be lowered"
                )
            fn = self.program.functions[expr.func]
            if len(arg_slots) != len(fn.params):
                raise BatchCompilationError(
                    f"{expr.func} expects {len(fn.params)} args, "
                    f"got {len(arg_slots)}"
                )
            return self._emit_call_body(fn, arg_slots, stack + (expr.func,))
        if expr.func in REJECTED_EXTERNALS:
            raise BatchCompilationError(
                f"external {expr.func!r} exceeds the int64 lane range"
            )
        if not externals.is_registered(expr.func):
            raise BatchCompilationError(f"unknown external {expr.func!r}")
        dest = self._new_slot()
        self._emit(
            ExternalInstr(dest=dest, name=expr.func, args=tuple(arg_slots))
        )
        return dest


def lower_program(program: Program) -> VMProgram:
    """Lower ``program`` to a flat instruction stream.

    Raises :class:`BatchCompilationError` when the program uses a
    construct the batched tier does not support; callers are expected
    to fall back to the scalar compiler.
    """
    return _Lowerer(program).lower()
