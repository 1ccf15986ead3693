"""Lowering: C AST → FPIR, mirroring the Python frontend shape-for-shape.

The contract that makes differential testing possible: a C function
and a Python function written with the same names and expression
structure lower to *dataclass-equal* FPIR bodies.  Labels are assigned
deterministically from structure (see :mod:`repro.fpir.program`), so
equal bodies mean identical analysis results — verdicts,
representatives, samples — across every engine mode.

Concretely the same conventions as :mod:`repro.fpir.frontend`:

* negated numeric literals fold to a negative :class:`Const`;
* ``%`` lowers to ``Call("fmod", ...)`` — C99 remainder semantics via
  the registered external (the Python twin spells it ``math.fmod``);
* conditions are *not* wrapped with ``!= 0``: the FPIR interpreter
  applies truthiness, exactly as for the Python frontend, so
  ``if (x)`` and ``if x:`` lower identically;
* ``&&``/``||`` in value position require boolean-shaped operands —
  C's 0/1 result vs FPIR's boolean would otherwise diverge silently;
* ``for (init; cond; update)`` desugars to ``init; while (cond)
  { body; update; }``, the same shape as the Python frontend's
  ``for i in range(...)`` desugar;
* the lowered program runs through the same
  :func:`repro.fpir.validate.validate` gate.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.cfront import c_ast as C
from repro.cfront.errors import CFrontendError
from repro.cfront.parser import parse_unit
from repro.fpir.frontend import MATH_EXTERNALS
from repro.fpir.nodes import (
    Assign,
    BinOp,
    Block,
    Call,
    Compare,
    Const,
    Expr,
    If,
    Return,
    SourceLoc,
    Stmt,
    Ternary,
    UnOp,
    Var,
    While,
)
from repro.fpir.program import Function, Param, Program
from repro.fpir.validate import validate

_ARITH_OPS = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}
_CMP_OPS = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge", "==": "eq", "!=": "ne"}
_COMPOUND_OPS = {"+=": "fadd", "-=": "fsub", "*=": "fmul", "/=": "fdiv"}


def _is_boolean_shaped(expr: C.CExpr) -> bool:
    """Does ``expr`` evaluate to a 0/1 truth value in C (so FPIR's
    boolean ``and``/``or`` agrees with C's int result)?"""
    if isinstance(expr, C.CBinary):
        if expr.op in _CMP_OPS:
            return True
        if expr.op in ("&&", "||"):
            return _is_boolean_shaped(expr.lhs) and _is_boolean_shaped(expr.rhs)
        return False
    if isinstance(expr, C.CUnary):
        return expr.op == "!"
    return False


class _CUnitEnv:
    """Name-resolution context shared by all functions being lowered."""

    def __init__(self, unit: C.CUnit, source_lines: List[str]) -> None:
        self.unit = unit
        self.source_lines = source_lines
        self.filename = unit.filename
        self.lowered: Set[str] = set()
        self.functions: List[Function] = []

    def error(self, message: str, node=None, hint: str = "") -> CFrontendError:
        return CFrontendError(
            message,
            line=getattr(node, "line", None),
            col=getattr(node, "col", None),
            source_lines=self.source_lines,
            filename=self.filename,
            hint=hint,
        )

    def lower_function(self, name: str) -> str:
        """Lower the definition bound to ``name`` (once, recursion-safe)
        and return the name it carries inside the lowered program."""
        if name not in self.lowered:
            self.lowered.add(name)
            fn = self.unit.functions[name]
            # Helpers finish before their callers append — the same
            # deterministic order as the Python frontend, which keeps
            # labelling (hence analysis results) stable.
            self.functions.append(_CFunctionLowerer(fn, self).lower())
        return name


class _CFunctionLowerer:
    """Lowers one :class:`~repro.cfront.c_ast.CFunction` to FPIR."""

    def __init__(self, fn: C.CFunction, env: _CUnitEnv) -> None:
        self.fn = fn
        self.env = env
        self.params = [p.name for p in fn.params]
        #: Names with a value so far, in lowering order (resolvable reads).
        self.locals: Set[str] = set(self.params)
        #: Names declared so far (C requires declaration before use).
        self.declared: Set[str] = set(self.params)

    def lower(self) -> Function:
        body = self._block(self.fn.body)
        return Function(
            name=self.fn.name,
            params=[Param(name) for name in self.params],
            body=Block(tuple(body)),
        )

    # -- statements ---------------------------------------------------------

    def _block(self, stmts: List[C.CStmt]) -> List[Stmt]:
        out: List[Stmt] = []
        for stmt in stmts:
            out.extend(self._stmt(stmt))
        return out

    def _stmt(self, stmt: C.CStmt) -> List[Stmt]:
        if isinstance(stmt, C.CDecl):
            return self._decl(stmt)
        if isinstance(stmt, C.CAssign):
            return [self._assign(stmt)]
        if isinstance(stmt, C.CIf):
            cond = self._expr(stmt.cond, as_condition=True)
            then = self._block(stmt.then)
            orelse = self._block(stmt.orelse)
            return [If(cond, Block(tuple(then)), Block(tuple(orelse)))]
        if isinstance(stmt, C.CWhile):
            cond = self._expr(stmt.cond, as_condition=True)
            body = self._block(stmt.body)
            return [While(cond, Block(tuple(body)))]
        if isinstance(stmt, C.CFor):
            return self._for(stmt)
        if isinstance(stmt, C.CReturn):
            return [Return(self._expr(stmt.value))]
        raise self.env.error(  # pragma: no cover - parser emits no others
            f"unsupported statement {type(stmt).__name__}", stmt
        )

    def _decl(self, stmt: C.CDecl) -> List[Stmt]:
        name = stmt.name
        if name in self.declared:
            raise self.env.error(
                f"redeclaration of '{name}' (FPIR has one flat scope "
                "per function)",
                stmt,
                hint="rename the inner variable",
            )
        if self.env.unit.constants.get(name) is not None:
            raise self.env.error(
                f"local '{name}' shadows a file-level constant",
                stmt,
                hint="rename the local",
            )
        self.declared.add(name)
        if stmt.init is None:
            return []
        expr = self._expr(stmt.init)
        self.locals.add(name)
        return [Assign(name, expr)]

    def _assign(self, stmt: C.CAssign) -> Stmt:
        name = stmt.name
        if name not in self.declared:
            if name in self.env.unit.constants:
                raise self.env.error(
                    f"assignment to file-level constant '{name}' "
                    "(FPIR has no mutable globals)",
                    stmt,
                )
            raise self.env.error(
                f"assignment to undeclared variable '{name}'",
                stmt,
                hint=f"declare it first: 'double {name} = ...;'",
            )
        if stmt.op == "=":
            expr = self._expr(stmt.value)
            self.locals.add(name)
            return Assign(name, expr)
        if name not in self.locals:
            raise self.env.error(
                f"'{name}' is updated with '{stmt.op}' before it is "
                "assigned a value",
                stmt,
            )
        op = _COMPOUND_OPS[stmt.op]
        return Assign(name, BinOp(op, Var(name), self._expr(stmt.value)))

    def _for(self, stmt: C.CFor) -> List[Stmt]:
        """``for (init; cond; update)`` → ``init; while (cond) {body;
        update}`` — the same desugared shape as the Python frontend's
        for-range, so C/Python twins stay dataclass-equal."""
        out: List[Stmt] = []
        for init in stmt.init:
            out.extend(self._stmt(init))
        cond: Expr
        if stmt.cond is None:
            cond = Const(True)
        else:
            cond = self._expr(stmt.cond, as_condition=True)
        body = self._block(stmt.body)
        for update in stmt.update:
            body.extend(self._stmt(update))
        out.append(While(cond, Block(tuple(body))))
        return out

    # -- expressions --------------------------------------------------------

    def _expr(self, node: C.CExpr, as_condition: bool = False) -> Expr:
        # Mirror of the Python frontend's `_expr` wrapper: lower, then
        # attach the advisory SourceLoc (excluded from digests/equality,
        # so C/Python twins stay dataclass-equal).
        expr = self._lower_expr(node, as_condition)
        line = getattr(node, "line", None)
        if line is not None:
            expr.loc = SourceLoc(
                self.env.filename, int(line), getattr(node, "col", None)
            )
        return expr

    def _lower_expr(self, node: C.CExpr, as_condition: bool = False) -> Expr:
        if isinstance(node, C.CNum):
            return Const(node.value)
        if isinstance(node, C.CName):
            return self._name(node)
        if isinstance(node, C.CUnary):
            return self._unary(node)
        if isinstance(node, C.CBinary):
            return self._binary(node, as_condition)
        if isinstance(node, C.CCond):
            return Ternary(
                self._expr(node.cond, as_condition=True),
                self._expr(node.then, as_condition),
                self._expr(node.orelse, as_condition),
            )
        if isinstance(node, C.CCall):
            return self._call(node)
        raise self.env.error(  # pragma: no cover - parser emits no others
            f"unsupported expression {type(node).__name__}", node
        )

    def _name(self, node: C.CName) -> Expr:
        name = node.name
        if name in self.locals:
            return Var(name)
        if name in self.declared:
            raise self.env.error(
                f"variable '{name}' is read before it is assigned",
                node,
            )
        unit = self.env.unit
        constant = unit.constants.get(name)
        if constant is not None:
            return Const(constant)
        if name in unit.functions or name in unit.skipped or name in unit.broken:
            raise self.env.error(
                f"function '{name}' used as a value (only direct calls "
                "are supported)",
                node,
            )
        if name in unit.rejected_names:
            raise self.env.error(
                f"'{name}' cannot be used: {unit.rejected_names[name]}",
                node,
            )
        raise self.env.error(
            f"undefined variable '{name}' (not a parameter, local, or "
            "file-level numeric constant)",
            node,
            hint="file-level names must be numeric #define or "
            "const double constants",
        )

    def _unary(self, node: C.CUnary) -> Expr:
        if node.op == "-":
            # Fold negated literals so `-3.0` lowers to the constant the
            # Python frontend (and the builder DSL) would write.
            if isinstance(node.operand, C.CNum):
                return Const(-node.operand.value)
            return UnOp("fneg", self._expr(node.operand))
        # '+' is dropped in the parser; the only other unary is '!'.
        return UnOp("not", self._expr(node.operand, as_condition=True))

    def _binary(self, node: C.CBinary, as_condition: bool) -> Expr:
        op = node.op
        if op in _ARITH_OPS:
            return BinOp(_ARITH_OPS[op], self._expr(node.lhs), self._expr(node.rhs))
        if op == "%":
            # C99 remainder: quiet-NaN edge semantics via the fmod
            # external (math.fmod raises where C returns NaN).
            return Call("fmod", (self._expr(node.lhs), self._expr(node.rhs)))
        if op in _CMP_OPS:
            return Compare(_CMP_OPS[op], self._expr(node.lhs), self._expr(node.rhs))
        assert op in ("&&", "||")
        if not as_condition and not (
            _is_boolean_shaped(node.lhs) and _is_boolean_shaped(node.rhs)
        ):
            raise self.env.error(
                f"'{op}' yields a 0/1 int in C but a boolean in FPIR; "
                "outside a condition it is only supported over boolean "
                "operands",
                node,
                hint="select values with 'cond ? a : b' instead",
            )
        fpir_op = "and" if op == "&&" else "or"
        return BinOp(
            fpir_op,
            self._expr(node.lhs, as_condition),
            self._expr(node.rhs, as_condition),
        )

    def _call(self, node: C.CCall) -> Expr:
        name = node.name
        if name in self.declared:
            raise self.env.error(
                f"'{name}' is a local variable, not a callable",
                node,
            )
        args = tuple(self._expr(a) for a in node.args)
        unit = self.env.unit
        helper = unit.functions.get(name)
        if helper is not None:
            want = len(helper.params)
            if len(args) != want:
                raise self.env.error(
                    f"call to '{name}' with {len(args)} argument(s); "
                    f"it takes {want}",
                    node,
                )
            return Call(self.env.lower_function(name), args)
        if name in unit.broken:
            # Re-raise the stored body diagnostic: it is the root cause
            # and already points at the offending line.
            raise unit.broken[name].error
        if name in unit.skipped:
            raise self.env.error(
                f"call to '{name}', whose signature is outside the "
                f"subset: {unit.skipped[name].reason}",
                node,
            )
        if name in MATH_EXTERNALS:
            return Call(name, args)
        if name == "abs":
            raise self.env.error("C 'abs' is integer-valued", node, hint="use fabs")
        if name in unit.prototypes:
            raise self.env.error(
                f"function '{name}' is declared but not defined in this "
                "file",
                node,
                hint="the only externals are math.h functions: "
                + ", ".join(MATH_EXTERNALS),
            )
        if name in unit.rejected_names:
            raise self.env.error(
                f"call to '{name}': {unit.rejected_names[name]}",
                node,
            )
        raise self.env.error(
            f"call to unknown function '{name}'",
            node,
            hint="helpers must be double functions defined in the same "
            "file; math.h externals: " + ", ".join(MATH_EXTERNALS),
        )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _definition_names(unit: C.CUnit) -> List[str]:
    return list(unit.order)


def _raise_unlowerable(unit: C.CUnit, name: str, source_lines: List[str]):
    """Raise the located reason a recorded definition cannot lower."""
    if name in unit.broken:
        # A memoized unit re-raises its stored error: start a fresh
        # traceback each time instead of growing the old one.
        raise unit.broken[name].error.with_traceback(None)
    skipped = unit.skipped[name]
    raise CFrontendError(
        f"cannot lower '{name}': {skipped.reason}",
        line=skipped.line,
        col=skipped.col,
        source_lines=source_lines,
        filename=unit.filename,
    )


def lower_c_source(
    source: str,
    entry: Optional[str] = None,
    filename: str = "<c>",
) -> Program:
    """Lower C source text to a :class:`Program`.

    ``source`` holds one or more function definitions; ``entry`` names
    the entry function (optional when the source defines exactly one).
    Helper functions the entry calls are lowered transitively;
    unrelated and out-of-subset definitions are tolerated, so one real
    ``.c`` file can hold many targets.
    """
    unit, source_lines = parse_c_unit(source, filename)
    known = _definition_names(unit)
    if not known:
        raise CFrontendError("source defines no functions", filename=filename)
    if entry is None:
        if len(known) != 1:
            raise CFrontendError(
                f"source defines {len(known)} functions "
                f"({', '.join(known)}); pass entry= to pick one",
                filename=filename,
            )
        entry = known[0]
    if entry not in unit.functions:
        if entry in unit.skipped or entry in unit.broken:
            _raise_unlowerable(unit, entry, source_lines)
        raise CFrontendError(
            f"no function named {entry!r} in source; "
            f"defined: {', '.join(known) or '(none)'}",
            filename=filename,
        )
    return lower_unit_entry(unit, source_lines, entry)


def lower_unit_entry(unit: C.CUnit, source_lines: List[str], entry: str) -> Program:
    """Lower ``entry`` from an already-parsed unit (assumes the name is
    a recorded in-subset definition).  The scan classifier calls this
    per candidate so each skip reason is the *exact* lowering error."""
    env = _CUnitEnv(unit, source_lines)
    env.lower_function(entry)
    program = Program(env.functions, entry=entry)
    errors = validate(program)
    if errors:
        raise CFrontendError(
            "lowered program failed FPIR validation: " + "; ".join(errors),
            filename=unit.filename,
        )
    return program


def lower_c_file(path: Union[str, Path], entry: str) -> Program:
    """Lower ``entry`` from the C file at ``path``.

    This is the resolver behind ``file.c::function`` target specs.
    The parse is shared with every other function of the unchanged
    file (:func:`parse_c_unit`).
    """
    file_path = Path(path)
    if not file_path.exists():
        raise CFrontendError(f"no C file at {str(path)!r}")
    return lower_c_source(file_path.read_text(), entry=entry, filename=str(path))


#: Parsed units by ``(filename, source)``.  Keyed by content, not
#: mtime, so a file rewritten within one timestamp tick never replays
#: a stale parse.
_PARSE_CACHE: Dict[Tuple[str, str], Tuple[C.CUnit, List[str]]] = {}
_PARSE_CACHE_MAX = 32


def parse_c_unit(source: str, filename: str = "<c>") -> Tuple[C.CUnit, List[str]]:
    """Parse without lowering; returns ``(unit, source_lines)``.

    Memoized by ``(filename, source)``, so the scan classifier and
    every ``file.c::fn`` lowering of one unchanged file share a single
    parse.  The unit is shared: treat it as read-only.
    """
    key = (filename, source)
    parsed = _PARSE_CACHE.get(key)
    if parsed is None:
        parsed = parse_unit(source, filename)
        if len(_PARSE_CACHE) >= _PARSE_CACHE_MAX:
            _PARSE_CACHE.clear()
        _PARSE_CACHE[key] = parsed
    return parsed


def c_ast_size(fn: C.CFunction, unit: C.CUnit) -> int:
    """Node count of ``fn`` plus reachable same-file helpers — the
    scan tier's complexity proxy, mirroring the Python classifier."""
    seen: Set[str] = set()
    total = 0
    queue = [fn.name]
    while queue:
        name = queue.pop()
        if name in seen or name not in unit.functions:
            continue
        seen.add(name)
        target = unit.functions[name]
        count, calls = _count_nodes(target.body)
        total += count + 1 + len(target.params)
        queue.extend(calls)
    return total


def _count_nodes(stmts) -> Tuple[int, List[str]]:
    count = 0
    calls: List[str] = []
    stack: List[object] = list(stmts)
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, C.CDecl):
            if node.init is not None:
                stack.append(node.init)
        elif isinstance(node, C.CAssign):
            stack.append(node.value)
        elif isinstance(node, C.CIf):
            stack.append(node.cond)
            stack.extend(node.then)
            stack.extend(node.orelse)
        elif isinstance(node, C.CWhile):
            stack.append(node.cond)
            stack.extend(node.body)
        elif isinstance(node, C.CFor):
            stack.extend(node.init)
            if node.cond is not None:
                stack.append(node.cond)
            stack.extend(node.update)
            stack.extend(node.body)
        elif isinstance(node, C.CReturn):
            stack.append(node.value)
        elif isinstance(node, C.CUnary):
            stack.append(node.operand)
        elif isinstance(node, C.CBinary):
            stack.append(node.lhs)
            stack.append(node.rhs)
        elif isinstance(node, C.CCond):
            stack.extend((node.cond, node.then, node.orelse))
        elif isinstance(node, C.CCall):
            calls.append(node.name)
            stack.extend(node.args)
    return count, calls
