#!/usr/bin/env python
"""Designing a *new* analysis with the three-layer architecture.

The paper's Section 5 architecture separates the Client (who provides
the program and the problem), the Analysis Designer (who picks
``w_init`` and the ``update_w`` stub) and the Reduction Kernel (which
instruments, minimizes and interprets).  This example plays the first
two roles for an analysis the paper does not ship:
**division-by-near-zero detection** — find inputs that make some
divisor's magnitude smaller than a threshold.  The engine plays the
third: it runs ``ReductionAnalysis``, Algorithm 2 for the designer's
spec.

Run: python examples/custom_analysis.py
"""

from repro.analyses import ReductionAnalysis
from repro.api import Engine, EngineConfig
from repro.core import AnalysisProblem
from repro.fpir.builder import FunctionBuilder, fadd, fdiv, fmul, fsub, num, v
from repro.fpir.instrument import InstrumentationSpec
from repro.fpir.nodes import Assign, BinOp, Call, Compare, Const, Ternary, Var
from repro.fpir.program import Program
from repro.mo import BasinhoppingBackend, uniform_sampler

THRESHOLD = 1e-6


def make_client_program() -> Program:
    """Client layer: a rational function with a hidden near-pole.

    f(x) = (x + 3) / (x*x - 2*x + 0.99999)   — denominator minimal
    (1e-5) at x = 1, never exactly zero.
    """
    fb = FunctionBuilder("rational", params=["x"])
    x = fb.arg("x")
    fb.let(
        "den",
        fadd(fsub(fmul(x, x), fmul(num(2.0), x)), num(0.99999)),
    )
    fb.let("out", fdiv(fadd(x, num(3.0)), v("den")))
    fb.ret(v("out"))
    return Program([fb.build()], entry="rational")


def designer_spec() -> InstrumentationSpec:
    """Analysis Designer layer: after every division ``q = a / b``
    (three-address form gives us the divisor as an operand), update
    ``w = min(w, max(|b| - THRESHOLD, 0))``.

    w is nonnegative, and zero iff some executed division's divisor
    magnitude is within THRESHOLD — a valid weak distance for the
    "near-pole input exists" problem.
    """

    def after_fp_assign(site, stmt):
        if site.op != "fdiv":
            return []
        divisor = stmt.expr.rhs
        abs_b = Call("fabs", (divisor,))
        slack = BinOp("fsub", abs_b, Const(THRESHOLD))
        clamped = Ternary(
            Compare("gt", slack, Const(0.0)), slack, Const(0.0)
        )
        keep_min = Ternary(
            Compare("lt", Var("w"), clamped), Var("w"), clamped
        )
        return [Assign("w", keep_min)]

    return InstrumentationSpec(
        w_var="w",
        w_init=float("inf"),
        after_fp_assign=after_fp_assign,
        normalize=True,  # one instruction per division
    )


def main() -> None:
    program = make_client_program()

    def near_pole(x) -> bool:
        den = (x[0] * x[0] - 2.0 * x[0]) + 0.99999
        return abs(den) <= THRESHOLD

    problem = AnalysisProblem(
        program,
        description=f"inputs with some divisor magnitude <= {THRESHOLD}",
        membership=near_pole,
    )

    # Reduction Kernel layer: Algorithm 2, run by the engine.
    engine = Engine(
        EngineConfig(
            seed=8,
            backend=BasinhoppingBackend(niter=60),
            n_starts=10,
            start_sampler=uniform_sampler(-100.0, 100.0),
        )
    )
    report = engine.run(ReductionAnalysis, problem, spec=designer_spec())
    best = report.detail.best
    print(f"verdict: {report.verdict}")
    print(f"x* = {best.x_star}, W* = {best.f_star}")
    assert report.found, "no near-pole input found"
    x = best.x_star[0]
    den = (x * x - 2.0 * x) + 0.99999
    print(f"denominator at x*: {den:.3g} (threshold {THRESHOLD})")
    assert near_pole(best.x_star)


if __name__ == "__main__":
    main()
