"""Translating formulas to FPIR programs.

Two translations, mirroring the paper's Instance 5 discussion:

* :func:`formula_to_branch_program` — the program
  ``void Prog(x1..xN) { if (c) {} }`` whose true-branch reachability is
  *equivalent* to satisfiability (Definition 2.1 equivalence), used to
  validate the instance-embedding claim experimentally.
* :func:`formula_to_distance_program` — the direct XSat construction
  ``R(x) = Σ_i min_j d(c_ij)``: nonnegative, and zero exactly on the
  models (under the chosen atom metric).  This is the weak distance the
  solver minimizes.
"""

from __future__ import annotations

from typing import List

from repro.fpir.nodes import (
    Assign,
    BinOp,
    Block,
    Compare,
    Const,
    Expr,
    If,
    Return,
    Ternary,
    Var,
)
from repro.fpir.program import Function, Param, Program
from repro.fpir.types import DOUBLE
from repro.sat.distance import ULP, atom_distance
from repro.sat.formula import Formula


def _fold_or(exprs: List[Expr]) -> Expr:
    acc = exprs[0]
    for e in exprs[1:]:
        acc = BinOp("or", acc, e)
    return acc


def _fold_and(exprs: List[Expr]) -> Expr:
    acc = exprs[0]
    for e in exprs[1:]:
        acc = BinOp("and", acc, e)
    return acc


def _fold_min(exprs: List[Expr], temp_base: str, stmts: List) -> Expr:
    """Emit statements computing the running minimum of ``exprs``."""
    name = temp_base
    stmts.append(Assign(name, exprs[0]))
    for k, e in enumerate(exprs[1:], start=1):
        other = f"{temp_base}_{k}"
        stmts.append(Assign(other, e))
        stmts.append(
            Assign(
                name,
                Ternary(
                    Compare("lt", Var(other), Var(name)),
                    Var(other),
                    Var(name),
                ),
            )
        )
    return Var(name)


def formula_to_branch_program(formula: Formula) -> Program:
    """``void Prog(x...) { if (c) { sat = 1; } }`` with a ``sat`` global.

    The entry returns 1.0 when the constraint holds (and sets the
    ``sat`` global), making satisfiability literally a path
    reachability problem on this program.
    """
    clause_exprs = [
        _fold_or([a.to_compare() for a in clause])
        for clause in formula.clauses
    ]
    cond = _fold_and(clause_exprs)
    body = Block(
        (
            If(
                cond,
                Block((Assign("sat", Const(1.0)), Return(Const(1.0)))),
                Block(()),
            ),
            Return(Const(0.0)),
        )
    )
    fn = Function(
        name="prog",
        params=[Param(name, DOUBLE) for name in formula.variables],
        body=body,
    )
    return Program([fn], entry="prog", globals={"sat": 0.0})


def formula_to_distance_program(
    formula: Formula, metric: str = ULP
) -> Program:
    """The XSat ``R`` program: returns ``Σ_i min_j d(c_ij)``.

    The value is also stored in the global ``w`` so the program can be
    driven through the standard :class:`~repro.core.weak_distance.
    WeakDistance` machinery.
    """
    stmts: List = [Assign("w", Const(0.0))]
    for i, clause in enumerate(formula.clauses):
        dists = [atom_distance(a, metric) for a in clause]
        clause_min = _fold_min(dists, f"_c{i}", stmts)
        stmts.append(Assign("w", BinOp("fadd", Var("w"), clause_min)))
    stmts.append(Return(Var("w")))
    fn = Function(
        name="R",
        params=[Param(name, DOUBLE) for name in formula.variables],
        body=Block(tuple(stmts)),
    )
    return Program([fn], entry="R", globals={"w": 0.0})


def formula_to_weak_distance(formula: Formula, metric: str = ULP, eval_mode=None):
    """Wrap the XSat ``R`` program as an executable
    :class:`~repro.core.weak_distance.WeakDistance`.

    ``R`` already stores its value in the global ``w``, so a trivial
    (hook-free) :class:`~repro.fpir.instrument.InstrumentationSpec` is
    enough — no rewriting happens.  The wrapper is what lets the SAT
    instance ride the same pool tasks as every other analysis: the
    pickled W carries the program to the worker processes, which
    rebuild and re-compile it once each.
    """
    from repro.core.weak_distance import WeakDistance
    from repro.fpir.instrument import (
        InstrumentationSpec,
        InstrumentedProgram,
    )
    from repro.fpir.labels import assign_labels

    program = formula_to_distance_program(formula, metric)
    index = assign_labels(program)
    return WeakDistance(
        InstrumentedProgram(
            program=program,
            index=index,
            spec=InstrumentationSpec(w_var="w", w_init=0.0),
        ),
        eval_mode=eval_mode,
    )
