#!/usr/bin/env python
"""Path reachability and branch-coverage testing on the Bessel port.

Shows the two control-flow instances of the reduction theory working on
real(istic) numerical code rather than a toy:

* **Branch coverage** (the CoverMe instance) drives inputs into every
  arm of the Glibc ``sin`` port's five-way dispatch.
* **Path reachability** targets a specific branch combination of the
  Fig. 2 program and verifies the witness by replay.

Run: python examples/path_and_coverage.py
"""

from repro.analyses import BranchConstraint, PathSpec
from repro.api import Engine, EngineConfig
from repro.libm import sin as glibc_sin
from repro.mo import BasinhoppingBackend, uniform_sampler, wide_log_sampler
from repro.programs import fig2


def coverage_on_sin() -> None:
    print("== Branch coverage on the Glibc sin port ==")
    engine = Engine(
        EngineConfig(
            seed=3, backend=BasinhoppingBackend(niter=30, local_maxiter=120)
        )
    )
    report = engine.run(
        "coverage",
        glibc_sin.make_program(),
        max_rounds=40,
        start_sampler=wide_log_sampler(-12.0, 10.0),
    ).detail
    print(f"coverage: {100.0 * report.coverage:.1f}% "
          f"({len(report.covered_arms)}/{report.total_arms} arms, "
          f"{report.rounds} rounds, {report.n_evals} evaluations)")
    for arm, witness in sorted(report.witnesses.items()):
        print(f"  {arm:8} <- x = {witness[0]:.6g}")
    print()


def path_on_fig2() -> None:
    print("== Path reachability on Fig. 2: first branch TRUE, "
          "second FALSE ==")
    spec = PathSpec(
        [BranchConstraint("b1", True), BranchConstraint("b2", False)]
    )
    engine = Engine(EngineConfig(seed=4, backend=BasinhoppingBackend(niter=40)))
    result = engine.run(
        "path",
        fig2.make_program(),
        spec=spec,
        n_starts=8,
        start_sampler=uniform_sampler(-50.0, 50.0),
    ).detail
    # x <= 1, then (x+1)^2 > 4  =>  x in (1-eps ... actually x < -3.
    print(f"found: {result.found}, witness: {result.x_star}, "
          f"verified: {result.verified}")
    if result.verified:
        x = result.x_star[0]
        assert x <= 1.0 and (x + 1.0) * (x + 1.0) > 4.0
        print(f"  witness satisfies x <= 1 and (x+1)^2 > 4: x = {x:.6g}")


def main() -> None:
    coverage_on_sin()
    path_on_fig2()


if __name__ == "__main__":
    main()
