"""repro — Effective Floating-Point Analysis via Weak-Distance
Minimization (PLDI 2019), reproduced as a Python library.

The library reduces floating-point analysis problems ⟨Prog; S⟩ to
mathematical optimization by constructing *weak distances* — nonnegative
programs whose zeros are exactly the solution set — and minimizing them
(Fu & Su, PLDI'19).

Quick tour
----------

>>> from repro.api import Engine, EngineConfig
>>> report = Engine(EngineConfig(seed=1)).run(
...     "boundary", "fig2", n_starts=5, max_samples=20000)
>>> sorted({x[0] for x in report.detail.boundary_values})[:3]
[-3.0, 0.9999999999999999, 1.0]

Packages
--------

:mod:`repro.api`
    The unified front-end: the `Analysis` protocol, the analysis
    registry, the `AnalysisReport` envelope and the `Engine` facade —
    one way to run all five instances, serially or on a worker pool.
:mod:`repro.fpir`
    FPIR, the C-like IR for the programs under analysis: builder,
    Python→FPIR frontend (any function in the restricted subset is a
    target), interpreter, Python-codegen compiler, instrumentation
    engine.
:mod:`repro.core`
    The reduction theory: problems, weak distances, Algorithm 2.
:mod:`repro.analyses`
    Instances 1-4: boundary values, path reachability, overflow
    detection (fpod), branch coverage.
:mod:`repro.sat`
    Instance 5: XSat-style QF-FP satisfiability.
:mod:`repro.mo`
    MO backends (Basinhopping / Differential Evolution / Powell /
    population / random search / portfolio).
:mod:`repro.gsl`, :mod:`repro.libm`
    The benchmark substrate: mini-GSL (bessel / hyperg / airy) and the
    Glibc 2.19 ``sin`` branch structure.
:mod:`repro.experiments`
    One module per paper table/figure (``python -m repro.experiments``).
"""

from repro.core import AnalysisProblem, WeakDistance
from repro.fpir import (
    Function,
    Program,
    compile_program,
    instrument,
    run_program,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisProblem",
    "Function",
    "Program",
    "WeakDistance",
    "compile_program",
    "instrument",
    "run_program",
    "__version__",
]
