"""Abstract interpretation of uninstrumented FPIR programs.

:func:`analyze` runs a flow-sensitive fixpoint over the entry function
(inlining calls, since FPIR has no function pointers) with the
interval × {finite, ±inf, NaN} domain of :mod:`repro.static.domain`:

* ``if``/ternary joins, with **condition refinement** on ``x ⊳ C``
  guards (and their ``and``/``or``/``not`` combinations) — range
  guards are what make real kernels certifiable over the full double
  domain, because NaN fails every ordered comparison and is therefore
  absent from the guarded branch;
* ``while`` loops iterate to a fixpoint with widening after
  :data:`WIDEN_AFTER` rounds (bounds jump to the lattice extremes, so
  termination is structural, not budgeted);
* every expression node is annotated with the join of its abstract
  values over all visits (``id(node)`` keyed — the resolved program is
  held by the result, so identities stay valid).  An unannotated node
  is *unreachable* under the analyzed entry.

Soundness posture: the entry parameters are :data:`~repro.static.domain.TOP`
(any double, ±inf and NaN included), because the dynamic engine's
minimizers may evaluate the program anywhere even though start points
are finite.  Anything the analysis cannot model (recursion, unknown
externals, boolean-typed joins it does not expect) flips
``complete=False`` — hazards stay reportable, certificates are refused.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Union

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
    RecordEvent,
    Return,
    Ternary,
    UnOp,
    Var,
    While,
)
from repro.fpir.program import Program
from repro.static import domain
from repro.static.domain import (
    BOTTOM,
    TOP,
    AbstractBool,
    AbstractValue,
    const_value,
)

#: Loop rounds before widening kicks in (small counters converge
#: exactly; anything still moving then jumps to the lattice extremes).
WIDEN_AFTER = 3

#: Hard cap on post-widening loop rounds; with widening in place two
#: more rounds always stabilize, so hitting this marks incompleteness.
MAX_LOOP_ROUNDS = 32

#: Inline depth cap for call chains (FPIR has no recursion in lowered
#: code, but the analysis must not trust that).
MAX_CALL_DEPTH = 16

Env = Dict[str, AbstractValue]


class _FnState:
    """Mutable interpretation state for one function inlining."""

    __slots__ = ("env", "ret", "terminated")

    def __init__(self, env: Env) -> None:
        self.env = env
        self.ret: AbstractValue = BOTTOM
        self.terminated = False


@dataclasses.dataclass
class AbsIntResult:
    """Everything one :func:`analyze` run established."""

    program: Program
    #: ``id(expr)`` -> joined abstract value over every visit.
    values: Dict[int, AbstractValue]
    #: Abstract return value of the entry function.
    returns: AbstractValue
    #: False when the analysis had to give up somewhere (recursion,
    #: unknown external, depth cap): hazards remain valid
    #: over-approximations, but nothing may be *proved*.
    complete: bool

    def value_of(self, expr: Expr) -> Optional[AbstractValue]:
        """The annotation for ``expr`` (None = never reached)."""
        return self.values.get(id(expr))


def _join_env(a: Env, b: Env) -> Env:
    out: Env = {}
    for name in a.keys() | b.keys():
        va, vb = a.get(name), b.get(name)
        if va is None:
            out[name] = vb
        elif vb is None:
            out[name] = va
        else:
            out[name] = domain.join(va, vb)
    return out


def _widen_env(old: Env, new: Env) -> Env:
    out: Env = {}
    for name in old.keys() | new.keys():
        vo, vn = old.get(name), new.get(name)
        if vo is None:
            out[name] = vn
        elif vn is None:
            out[name] = vo
        else:
            out[name] = domain.widen(vo, vn)
    return out


def _env_leq(a: Env, b: Env) -> bool:
    return all(domain.leq(v, b.get(name, BOTTOM)) for name, v in a.items())


class _AbsInterp:
    def __init__(self, program: Program) -> None:
        self.program = program
        self.values: Dict[int, AbstractValue] = {}
        self.complete = True
        self._stack: List[str] = []

    # -- bookkeeping --------------------------------------------------------

    def _record(self, expr: Expr, value: AbstractValue) -> AbstractValue:
        key = id(expr)
        seen = self.values.get(key)
        self.values[key] = value if seen is None else domain.join(seen, value)
        return value

    def _give_up(self) -> AbstractValue:
        self.complete = False
        return TOP

    # -- functions ----------------------------------------------------------

    def eval_function(self, name: str, args: List[AbstractValue]) -> AbstractValue:
        fn = self.program.functions[name]
        if name in self._stack or len(self._stack) >= MAX_CALL_DEPTH:
            return self._give_up()
        env: Env = {}
        for param, value in zip(fn.params, args):
            env[param.name] = value
        self._stack.append(name)
        try:
            state = _FnState(env)
            self.exec_block(fn.body, state)
            ret = state.ret
            if not state.terminated:
                # Fell off the end: C would return garbage; the
                # interpreter returns 0.0 for a missing return.
                ret = domain.join(ret, const_value(0.0))
            return ret
        finally:
            self._stack.pop()

    # -- statements ---------------------------------------------------------

    def exec_block(self, block: Block, state: _FnState) -> None:
        for stmt in block.stmts:
            if state.terminated:
                return
            self.exec_stmt(stmt, state)

    def exec_stmt(self, stmt, state: _FnState) -> None:
        cls = stmt.__class__
        if cls is Assign:
            state.env[stmt.name] = self._as_value(self.eval_expr(stmt.expr, state.env))
        elif cls is Return:
            if stmt.value is not None:
                state.ret = domain.join(
                    state.ret, self._as_value(self.eval_expr(stmt.value, state.env))
                )
            state.terminated = True
        elif cls is If:
            self._exec_if(stmt, state)
        elif cls is While:
            self._exec_while(stmt, state)
        elif cls is Block:
            self.exec_block(stmt, state)
        elif cls is RecordEvent:
            pass  # bookkeeping only; no dataflow
        elif cls is Halt:
            state.terminated = True
        else:  # pragma: no cover - exhaustive over FPIR statements
            self.complete = False

    def _exec_if(self, stmt: If, state: _FnState) -> None:
        cond = self._as_bool(self.eval_expr(stmt.cond, state.env, as_condition=True))
        then_env = self._refine(stmt.cond, state.env, True)
        else_env = self._refine(stmt.cond, state.env, False)
        branches: List[_FnState] = []
        for taken, env in ((cond.may_true, then_env), (cond.may_false, else_env)):
            body = stmt.then if env is then_env else stmt.orelse
            if not taken:
                continue
            sub = _FnState(dict(env))
            self.exec_block(body, sub)
            state.ret = domain.join(state.ret, sub.ret)
            branches.append(sub)
        live = [b.env for b in branches if not b.terminated]
        if not live:
            state.terminated = True
            return
        env = live[0]
        for other in live[1:]:
            env = _join_env(env, other)
        state.env = env

    def _exec_while(self, stmt: While, state: _FnState) -> None:
        env = state.env
        exits: List[Env] = []
        any_exit = False
        returned: AbstractValue = BOTTOM
        for round_ in range(MAX_LOOP_ROUNDS):
            cond = self._as_bool(self.eval_expr(stmt.cond, env, as_condition=True))
            if cond.may_false:
                any_exit = True
                exits.append(self._refine(stmt.cond, env, False))
            if not cond.may_true:
                break
            sub = _FnState(dict(self._refine(stmt.cond, env, True)))
            self.exec_block(stmt.body, sub)
            returned = domain.join(returned, sub.ret)
            if sub.terminated:
                # Every path through the body returned/halted: the
                # loop runs at most once more than analyzed.
                break
            merged = _join_env(env, sub.env)
            if _env_leq(merged, env):
                break
            env = _widen_env(env, merged) if round_ >= WIDEN_AFTER else merged
        else:
            self.complete = False
            exits.append(env)  # be safe: fall through with the invariant
            any_exit = True
        state.ret = domain.join(state.ret, returned)
        if not any_exit and returned.is_bottom:
            # No abstract exit: the loop never provably terminates on
            # the analyzed domain (e.g. `while True` with only Halt).
            state.terminated = True
            return
        if exits:
            out = exits[0]
            for other in exits[1:]:
                out = _join_env(out, other)
            state.env = out
        else:
            state.terminated = True

    # -- expressions --------------------------------------------------------

    def _as_value(self, value: Union[AbstractValue, AbstractBool]) -> AbstractValue:
        if isinstance(value, AbstractBool):
            lo = 0.0 if value.may_false else 1.0
            hi = 1.0 if value.may_true else 0.0
            return AbstractValue(lo, hi)
        return value

    def _as_bool(self, value: Union[AbstractValue, AbstractBool]) -> AbstractBool:
        if isinstance(value, AbstractBool):
            return value
        if value.is_bottom:
            return AbstractBool(False, False)
        may_false = value.may_be_zero() or value.nan
        may_true = (
            value.pinf
            or value.ninf
            or (value.has_finite and (value.lo != 0.0 or value.hi != 0.0))
        )
        return AbstractBool(may_true, may_false)

    def eval_expr(
        self, expr: Expr, env: Env, as_condition: bool = False
    ) -> Union[AbstractValue, AbstractBool]:
        cls = expr.__class__
        if cls is Const:
            value = expr.value
            if isinstance(value, bool):
                out: Union[AbstractValue, AbstractBool] = AbstractBool(value, not value)
            else:
                out = const_value(float(value))
        elif cls is Var:
            if expr.name in env:
                out = env[expr.name]
            elif expr.name in self.program.globals:
                # Globals are shared mutable state (GSL out-params);
                # model every read as TOP rather than track them.
                out = TOP
            else:
                out = self._give_up()
        elif cls is BinOp:
            out = self._eval_binop(expr, env, as_condition)
        elif cls is Compare:
            lhs = self._as_value(self.eval_expr(expr.lhs, env))
            rhs = self._as_value(self.eval_expr(expr.rhs, env))
            out = domain.compare_transfer(expr.op, lhs, rhs)
        elif cls is UnOp:
            out = self._eval_unop(expr, env)
        elif cls is Call:
            out = self._eval_call(expr, env)
        elif cls is Ternary:
            out = self._eval_ternary(expr, env, as_condition)
        elif cls is ArrayIndex:
            values = self.program.arrays.get(expr.name, ())
            self.eval_expr(expr.index, env)
            if values:
                out = AbstractValue(min(values), max(values))
            else:
                out = self._give_up()
        else:
            # InLabelSet only appears in instrumented programs.
            self.complete = False
            out = AbstractBool(True, True)
        if isinstance(out, AbstractBool):
            self._record(expr, self._as_value(out))
            return out
        return self._record(expr, out)

    def _eval_binop(
        self, expr: BinOp, env: Env, as_condition: bool
    ) -> Union[AbstractValue, AbstractBool]:
        if expr.op == "and" or expr.op == "or":
            lhs = self._as_bool(self.eval_expr(expr.lhs, env, as_condition))
            rhs = self._as_bool(self.eval_expr(expr.rhs, env, as_condition))
            if expr.op == "and":
                return AbstractBool(
                    lhs.may_true and rhs.may_true,
                    lhs.may_false or rhs.may_false,
                )
            return AbstractBool(
                lhs.may_true or rhs.may_true,
                lhs.may_false and rhs.may_false,
            )
        lhs = self._as_value(self.eval_expr(expr.lhs, env))
        rhs = self._as_value(self.eval_expr(expr.rhs, env))
        return domain.binop_transfer(expr.op, lhs, rhs)

    def _eval_unop(self, expr: UnOp, env: Env) -> Union[AbstractValue, AbstractBool]:
        if expr.op == "not":
            operand = self._as_bool(self.eval_expr(expr.operand, env, True))
            return AbstractBool(operand.may_false, operand.may_true)
        operand = self._as_value(self.eval_expr(expr.operand, env))
        return domain.unop_transfer(expr.op, operand)

    def _eval_call(self, expr: Call, env: Env) -> AbstractValue:
        args = [self._as_value(self.eval_expr(a, env)) for a in expr.args]
        if expr.func in self.program.functions:
            return self.eval_function(expr.func, args)
        out = domain.external_transfer(expr.func, tuple(args))
        if out is None:
            return self._give_up()
        return out

    def _eval_ternary(
        self, expr: Ternary, env: Env, as_condition: bool
    ) -> Union[AbstractValue, AbstractBool]:
        cond = self._as_bool(self.eval_expr(expr.cond, env, as_condition=True))
        arms: List[Union[AbstractValue, AbstractBool]] = []
        if cond.may_true:
            arms.append(
                self.eval_expr(
                    expr.then, self._refine(expr.cond, env, True), as_condition
                )
            )
        if cond.may_false:
            arms.append(
                self.eval_expr(
                    expr.orelse, self._refine(expr.cond, env, False), as_condition
                )
            )
        if not arms:
            return BOTTOM
        values = [self._as_value(a) for a in arms]
        out = values[0]
        for value in values[1:]:
            out = domain.join(out, value)
        return out

    # -- condition refinement -----------------------------------------------

    def _refine(self, cond: Expr, env: Env, truth: bool) -> Env:
        """A copy of ``env`` narrowed by assuming ``cond`` is ``truth``.

        Handles ``Var ⊳ Const`` / ``Const ⊳ Var`` comparisons and their
        ``and``/``or``/``not`` combinations; anything else refines
        nothing (sound: the unrefined env is wider).
        """
        cls = cond.__class__
        if cls is Compare:
            return self._refine_compare(cond, env, truth)
        if cls is UnOp and cond.op == "not":
            return self._refine(cond.operand, env, not truth)
        if cls is BinOp and cond.op in ("and", "or"):
            conjunction = (cond.op == "and") == truth
            if conjunction:
                # true(a and b) = both; false(a or b) = both false.
                env = self._refine(cond.lhs, env, truth)
                return self._refine(cond.rhs, env, truth)
            # false(and) / true(or): either side — join the two refinements.
            return _join_env(
                self._refine(cond.lhs, env, truth),
                self._refine(cond.rhs, env, truth),
            )
        return dict(env)

    def _refine_compare(self, cond: Compare, env: Env, truth: bool) -> Env:
        out = dict(env)
        lhs, rhs = cond.lhs, cond.rhs
        flipped = {
            "lt": "gt",
            "le": "ge",
            "gt": "lt",
            "ge": "le",
            "eq": "eq",
            "ne": "ne",
        }
        if lhs.__class__ is Var and lhs.name in out:
            bound = self._bound_value(rhs, env)
            if bound is not None:
                out[lhs.name] = domain.refine_compare(
                    out[lhs.name], cond.op, bound, truth
                )
        if rhs.__class__ is Var and rhs.name in out:
            bound = self._bound_value(lhs, env)
            if bound is not None:
                out[rhs.name] = domain.refine_compare(
                    out[rhs.name], flipped[cond.op], bound, truth
                )
        return out

    def _bound_value(self, expr: Expr, env: Env) -> Optional[AbstractValue]:
        """A singleton bound for refinement, without re-annotating."""
        if expr.__class__ is Const and not isinstance(expr.value, bool):
            return const_value(float(expr.value))
        return None


def analyze(
    program: Program,
    entry: Optional[str] = None,
    inputs: Optional[Dict[str, AbstractValue]] = None,
) -> AbsIntResult:
    """Abstractly interpret ``program`` from its entry function.

    ``inputs`` optionally overrides parameter values by name (default:
    every parameter is TOP — any double, specials included).
    """
    entry = entry or program.entry
    fn = program.functions[entry]
    interp = _AbsInterp(program)
    args = [
        (inputs or {}).get(param.name, TOP) for param in fn.params
    ]
    returns = interp.eval_function(entry, args)
    return AbsIntResult(
        program=program,
        values=interp.values,
        returns=returns,
        complete=interp.complete,
    )
