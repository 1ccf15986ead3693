"""Table 3 — fpod summary over the three GSL benchmarks.

For each benchmark (bessel, hyperg, airy): the number of elementary FP
operations |Op|, detected overflows |O|, inconsistencies |I| (status ==
GSL_SUCCESS with non-finite val/err), bug candidates |B| (non-benign
root causes — the airy division-by-zero and inaccurate-cosine), and
wall-clock time.

Notes vs the paper: our |Op| for airy covers the whole instrumented
call graph (the paper's LLVM pass reports 26 for the entry file), and
|B| counts bug-*shaped* findings our substitution reproduces.
"""

from __future__ import annotations

from typing import Optional

from repro.analyses.inconsistency import InconsistencyChecker
from repro.experiments.common import ExperimentResult, run_analysis
from repro.gsl import airy, bessel, hyperg
from repro.util.timing import Stopwatch

BENCHMARKS = (
    ("bessel", bessel, "gsl_sf_bessel_Knu_scaled_asympx_e"),
    ("hyperg", hyperg, "gsl_sf_hyperg_2F0_e"),
    ("airy", airy, "gsl_sf_airy_Ai_e"),
)


def _probe_inputs(name, module, report):
    """fpod inputs plus the paper's targeted follow-ups for airy."""
    inputs = list(report.inputs)
    if name == "airy":
        try:
            inputs.append((module.find_bug1_input(),))
        except LookupError:
            pass
        inputs.append((module.BUG2_REFERENCE_INPUT,))
    return inputs


def run(quick: bool = False, seed: Optional[int] = None) -> ExperimentResult:
    rows = []
    data = {}
    for name, module, function in BENCHMARKS:
        with Stopwatch() as watch:
            envelope = run_analysis(
                "overflow",
                module.make_program(),
                seed=seed,
                backend_options={
                    "niter": 15 if quick else 40,
                    "local_maxiter": 80 if quick else 150,
                },
                n_starts=2 if quick else 4,
            )
            report = envelope.detail
            checker = InconsistencyChecker(
                module.make_program(),
                classifier=module.classify_root_cause,
            )
            findings = checker.sweep(_probe_inputs(name, module, report))
        bugs = [f for f in findings if f.is_bug_candidate]
        # |B| counts distinct bugs (root causes), not triggering
        # inputs — several inputs may tickle the same defect.
        bug_causes = sorted({f.root_cause for f in bugs})
        seconds = f"{watch.elapsed:.1f}"
        if envelope.n_evals_cached:
            # The harness session already ran this campaign (Table 5
            # runs the same ones) and served it from its round cache:
            # T does not time a search.
            seconds += " (cached)"
        rows.append(
            (
                name,
                function,
                report.n_fp_ops,
                report.n_overflows,
                len(findings),
                len(bug_causes),
                seconds,
            )
        )
        data[name] = {
            "overflow_report": report,
            "inconsistencies": findings,
            "bugs": bugs,
        }
    return ExperimentResult(
        name="table3",
        title="Floating-point overflow detection summary (fpod)",
        headers=("bench", "function", "|Op|", "|O|", "|I|", "|B|", "T (sec)"),
        rows=rows,
        data=data,
        notes=(
            "Paper: bessel 23/21/4/0 6.0s; hyperg 8/4/2/0 5.9s; "
            "airy 26/2/2/2 10.4s."
        ),
    )
