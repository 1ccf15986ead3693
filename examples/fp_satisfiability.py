#!/usr/bin/env python
"""Instance 5: QF-FP satisfiability as weak-distance minimization.

Decides the paper's Section 1 motivating constraints:

* ``x < 1  ∧  x + 1 >= 2`` — satisfiable under round-to-nearest with
  the counterintuitive model x = 0.9999999999999999;
* the ``tan`` variant ``x < 1 ∧ x + tan(x) >= 2`` — the case SMT
  solvers struggle with because tan's semantics is system-dependent;
  the weak-distance solver just *executes* tan;
* an unsatisfiable toy ``x > 1 ∧ x < 0`` — reported UNKNOWN
  (likely-UNSAT; the solver is honest about Limitation 3).

Run: python examples/fp_satisfiability.py
"""

from repro.api import Engine, EngineConfig
from repro.fpir.builder import call, fadd, num, v
from repro.mo import uniform_sampler
from repro.sat import (
    RandomSamplingSolver,
    atom,
    conjunction,
    evaluate_formula,
)


def main() -> None:
    def solve(formula, seed):
        """Decide ``formula`` with the engine's ``sat`` analysis."""
        config = EngineConfig(
            seed=seed,
            n_starts=30,
            start_sampler=uniform_sampler(-10.0, 10.0),
        )
        return Engine(config).run("sat", formula).detail

    print("== x < 1  ∧  x + 1 >= 2  (Fig. 1a) ==")
    f1 = conjunction(
        atom("lt", v("x"), num(1.0)),
        atom("ge", fadd(v("x"), num(1.0)), num(2.0)),
    )
    r1 = solve(f1, seed=5)
    print(f"verdict: {r1.verdict.value}, model: {r1.model}, "
          f"evals: {r1.n_evals}")
    assert r1.is_sat and r1.model["x"] == 0.9999999999999999

    print()
    print("== x < 1  ∧  x + tan(x) >= 2  (Fig. 1b) ==")
    f2 = conjunction(
        atom("lt", v("x"), num(1.0)),
        atom("ge", fadd(v("x"), call("tan", v("x"))), num(2.0)),
    )
    r2 = solve(f2, seed=6)
    print(f"verdict: {r2.verdict.value}, model: {r2.model}")
    assert r2.is_sat
    assert evaluate_formula(f2, [r2.model["x"]])

    print()
    print("== x > 1  ∧  x < 0  (unsatisfiable) ==")
    f3 = conjunction(
        atom("gt", v("x"), num(1.0)), atom("lt", v("x"), num(0.0))
    )
    r3 = solve(f3, seed=7)
    print(f"verdict: {r3.verdict.value}  (minimum found: {r3.r_star:.3g})")
    assert not r3.is_sat

    print()
    print("== baseline: random sampling on Fig. 1a ==")
    baseline = RandomSamplingSolver(
        n_samples=20_000, start_sampler=uniform_sampler(-10.0, 10.0)
    )
    rb = baseline.solve(f1, seed=5)
    print(f"verdict: {rb.verdict.value} after {rb.n_evals} samples "
          "(the model is a 1-ulp target — random testing misses it)")


if __name__ == "__main__":
    main()
