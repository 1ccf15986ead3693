#!/usr/bin/env python
"""The paper's Section 6.3 case study: fpod on three GSL functions.

Runs Algorithm 3 (overflow detection by weak-distance minimization) on
the Bessel, hypergeometric and Airy ports, replays the generated inputs
for the inconsistency check (status == GSL_SUCCESS yet val/err is
non-finite), and prints the root-cause classification — including the
two airy findings that correspond to GSL's confirmed bugs.

Run: python examples/overflow_gsl.py [--bench bessel|hyperg|airy]
"""

import argparse

from repro.analyses import InconsistencyChecker
from repro.api import Engine, EngineConfig
from repro.gsl import airy, bessel, hyperg
from repro.mo import BasinhoppingBackend
from repro.util.tables import format_table

BENCHES = {"bessel": bessel, "hyperg": hyperg, "airy": airy}


def run_bench(name: str, seed: int) -> None:
    module = BENCHES[name]
    print(f"=== {name} ===")
    engine = Engine(
        EngineConfig(
            seed=seed,
            backend=BasinhoppingBackend(niter=40, local_maxiter=150),
        )
    )
    report = engine.run("overflow", module.make_program(), n_starts=4).detail
    print(f"FP instructions: {report.n_fp_ops}, overflows triggered: "
          f"{report.n_overflows}, rounds: {report.rounds}, "
          f"time: {report.elapsed_seconds:.1f}s")
    rows = [
        (f.label, f.text, ", ".join(f"{v:.2g}" for v in f.x_star))
        for f in report.findings
    ]
    print(format_table(("label", "instruction", "x*"), rows))

    inputs = list(report.inputs)
    if name == "airy":
        # The paper's two targeted probes (gdb analysis stand-ins).
        try:
            inputs.append((airy.find_bug1_input(),))
        except LookupError:
            pass
        inputs.append((airy.BUG2_REFERENCE_INPUT,))
    checker = InconsistencyChecker(
        module.make_program(), classifier=module.classify_root_cause
    )
    findings = checker.sweep(inputs)
    print()
    print("Inconsistencies (status == GSL_SUCCESS, non-finite result):")
    for f in findings:
        tag = "BUG" if f.is_bug_candidate else "benign"
        print(f"  [{tag}] x* = "
              f"({', '.join(f'{v:.6g}' for v in f.x_star)})  "
              f"val={f.val:.3g} err={f.err:.3g}  cause: {f.root_cause}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--bench", choices=sorted(BENCHES),
                        default=None, help="run a single benchmark")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    for name in ([args.bench] if args.bench else sorted(BENCHES)):
        run_bench(name, args.seed)


if __name__ == "__main__":
    main()
