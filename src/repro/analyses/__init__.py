"""The five floating-point analysis instances (paper Section 2.2).

* :mod:`repro.analyses.boundary` — Instance 1, boundary value analysis.
* :mod:`repro.analyses.path` — Instance 2, path reachability.
* :mod:`repro.analyses.overflow` — Instance 3, overflow detection
  (Algorithm 3 / the fpod tool).
* :mod:`repro.analyses.coverage` — Instance 4, branch-coverage testing
  (the CoverMe instance).
* Instance 5, QF-FP satisfiability (the XSat instance), lives in
  :mod:`repro.sat`.
* :mod:`repro.analyses.inconsistency` — the Section 6.3.2 GSL
  inconsistency check used on fpod's outputs.
* :mod:`repro.analyses.reduction` — Algorithm 2 for a designer's own
  instrumentation spec (Section 5's three roles); not registered by
  name, callers pass the class.
"""

from repro.analyses.boundary import (
    BoundaryAnalysis,
    BoundaryReport,
    characteristic_spec,
    multiplicative_spec,
)
from repro.analyses.coverage import (
    CoverageAnalysis,
    CoverageReport,
)
from repro.analyses.inconsistency import (
    InconsistencyChecker,
    InconsistencyFinding,
)
from repro.analyses.overflow import (
    OverflowAnalysis,
    OverflowFinding,
    OverflowReport,
)
from repro.analyses.path import (
    BranchConstraint,
    PathAnalysis,
    PathResult,
    PathSpec,
)
from repro.analyses.reduction import ReductionAnalysis

__all__ = [
    "BoundaryAnalysis",
    "BoundaryReport",
    "BranchConstraint",
    "CoverageAnalysis",
    "CoverageReport",
    "InconsistencyChecker",
    "InconsistencyFinding",
    "OverflowAnalysis",
    "OverflowFinding",
    "OverflowReport",
    "PathAnalysis",
    "PathResult",
    "PathSpec",
    "ReductionAnalysis",
    "characteristic_spec",
    "multiplicative_spec",
]
