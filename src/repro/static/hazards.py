"""Located hazard findings over an abstract-interpretation result.

A *hazard* is a statically reachable floating-point danger: the
abstract value flow admits at least one concrete execution that would
divide by zero, leave a library function's domain, overflow, or
catastrophically cancel.  Hazards are deliberately one-sided in the
opposite direction from :mod:`repro.static.prove`: a hazard is a *may*
warning (over-approximation), a certificate is a *must-not* proof.

Kinds (all four required to make ``repro lint`` useful on real code):

* ``div-by-zero`` — an ``fdiv`` whose divisor interval contains zero;
* ``domain`` — ``sqrt``/``log`` of a possibly-negative (for ``log``:
  non-positive) argument, ``pow`` with a possibly-negative base and a
  possibly-non-integer exponent;
* ``overflow`` — an elementary FP operation, ``exp``, ``pow`` or
  ``ldexp`` whose *finite* operand values can already produce ±inf
  (fresh overflow, not propagation of an operand that was non-finite
  to begin with);
* ``cancellation`` — an ``fsub`` whose operand intervals are
  same-signed and overlapping: near-equal operands of the same sign
  lose leading significant digits.

Every hazard carries the :class:`~repro.fpir.nodes.SourceLoc` its
expression was lowered from (when the frontend attached one), so the
lint renderer can print file:line caret diagnostics.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.fpir.nodes import BinOp, Call, SourceLoc
from repro.fpir.walk import iter_all_exprs
from repro.static import domain
from repro.static.absint import AbsIntResult
from repro.static.domain import AbstractValue

#: The hazard kinds this pass can report, in rendering order.
HAZARD_KINDS = ("div-by-zero", "domain", "overflow", "cancellation")


@dataclasses.dataclass(frozen=True)
class Hazard:
    """One located static finding."""

    kind: str
    function: str
    op: str  # "fdiv", "fsub", "sqrt", "exp", ...
    message: str
    loc: Optional[SourceLoc] = None

    def sort_key(self) -> Tuple:
        loc = self.loc
        return (
            loc.file if loc else "",
            loc.line if loc else 0,
            loc.col if loc and loc.col is not None else 0,
            HAZARD_KINDS.index(self.kind),
            self.op,
            self.function,
        )


def _fmt_range(value: AbstractValue) -> str:
    parts: List[str] = []
    if value.has_finite:
        parts.append(f"[{value.lo:.6g}, {value.hi:.6g}]")
    if value.ninf:
        parts.append("-inf")
    if value.pinf:
        parts.append("+inf")
    if value.nan:
        parts.append("nan")
    return " ∪ ".join(parts) if parts else "∅"


def _finite_part(value: AbstractValue) -> AbstractValue:
    return AbstractValue(value.lo, value.hi)


def _fresh_overflow(op: str, lhs: AbstractValue, rhs: AbstractValue) -> bool:
    """Can *finite* operand values alone push this op to ±inf?"""
    if not (lhs.has_finite and rhs.has_finite):
        return False
    out = domain.binop_transfer(op, _finite_part(lhs), _finite_part(rhs))
    return out.pinf or out.ninf


def _same_sign_overlap(lhs: AbstractValue, rhs: AbstractValue) -> bool:
    if not (lhs.has_finite and rhs.has_finite):
        return False
    overlap = lhs.lo <= rhs.hi and rhs.lo <= lhs.hi
    if not overlap:
        return False
    both_pos = lhs.hi > 0.0 and rhs.hi > 0.0
    both_neg = lhs.lo < 0.0 and rhs.lo < 0.0
    return both_pos or both_neg


def _call_hazards(
    expr: Call, result: AbsIntResult, function: str, out: List[Hazard]
) -> None:
    args = [result.value_of(a) for a in expr.args]
    if any(a is None for a in args):
        return  # call itself unreachable
    loc = getattr(expr, "loc", None)
    name = expr.func
    if name == "sqrt":
        (arg,) = args
        if arg.ninf or (arg.has_finite and arg.lo < 0.0):
            out.append(
                Hazard(
                    "domain",
                    function,
                    "sqrt",
                    f"sqrt of a possibly-negative value {_fmt_range(arg)}",
                    loc,
                )
            )
    elif name == "log":
        (arg,) = args
        if arg.ninf or (arg.has_finite and arg.lo <= 0.0):
            out.append(
                Hazard(
                    "domain",
                    function,
                    "log",
                    f"log of a possibly non-positive value {_fmt_range(arg)}",
                    loc,
                )
            )
    elif name == "pow":
        base, exponent = args
        base_neg = base.ninf or (base.has_finite and base.lo < 0.0)
        exp_int = (
            exponent.finite_only
            and exponent.lo == exponent.hi
            and float(exponent.lo) == int(exponent.lo)
        )
        if base_neg and not exp_int:
            out.append(
                Hazard(
                    "domain",
                    function,
                    "pow",
                    "pow with possibly-negative base "
                    f"{_fmt_range(base)} and non-integer exponent "
                    f"{_fmt_range(exponent)}",
                    loc,
                )
            )
    if name in ("exp", "pow", "ldexp"):
        finite_args = [
            _finite_part(a) if a.has_finite else None for a in args
        ]
        if all(a is not None for a in finite_args):
            res = domain.external_transfer(name, tuple(finite_args))
            if res is not None and (res.pinf or res.ninf):
                out.append(
                    Hazard(
                        "overflow",
                        function,
                        name,
                        f"{name} can overflow to ±inf from finite "
                        f"arguments {', '.join(_fmt_range(a) for a in args)}",
                        loc,
                    )
                )


def find_hazards(result: AbsIntResult) -> List[Hazard]:
    """Every hazard reachable in ``result``'s analyzed program.

    Only *annotated* expressions are considered: an expression the
    fixpoint never visited is unreachable from the entry under the
    full input domain, so nothing dynamic can ever execute it.
    """
    program = result.program
    out: List[Hazard] = []
    seen = set()
    for fname, fn in program.functions.items():
        for expr in iter_all_exprs(fn.body):
            key = (id(expr),)
            if key in seen:
                continue
            seen.add(key)
            cls = expr.__class__
            if cls is BinOp and expr.op in ("fdiv", "fsub", "fadd", "fmul"):
                lhs, rhs = result.value_of(expr.lhs), result.value_of(expr.rhs)
                if lhs is None or rhs is None:
                    continue
                loc = getattr(expr, "loc", None)
                if expr.op == "fdiv" and rhs.may_be_zero():
                    out.append(
                        Hazard(
                            "div-by-zero",
                            fname,
                            "fdiv",
                            f"divisor range {_fmt_range(rhs)} contains zero",
                            loc,
                        )
                    )
                if _fresh_overflow(expr.op, lhs, rhs):
                    out.append(
                        Hazard(
                            "overflow",
                            fname,
                            expr.op,
                            f"{expr.op} of {_fmt_range(lhs)} and "
                            f"{_fmt_range(rhs)} can overflow to ±inf",
                            loc,
                        )
                    )
                if expr.op == "fsub" and _same_sign_overlap(lhs, rhs):
                    out.append(
                        Hazard(
                            "cancellation",
                            fname,
                            "fsub",
                            "subtraction of same-signed overlapping "
                            f"ranges {_fmt_range(lhs)} and {_fmt_range(rhs)} "
                            "can cancel catastrophically",
                            loc,
                        )
                    )
            elif cls is Call:
                _call_hazards(expr, result, fname, out)
    out.sort(key=Hazard.sort_key)
    return out
