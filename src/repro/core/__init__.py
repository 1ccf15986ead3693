"""The paper's primary contribution: the reduction theory.

``repro.core`` implements Definitions 2.1 and 3.1, Algorithm 2, and the
three-layer architecture of Section 5:

* :class:`~repro.core.problem.AnalysisProblem` — the Client's ⟨Prog; S⟩;
* :class:`~repro.core.weak_distance.WeakDistance` — an executable W with
  Def. 3.1 law-checking helpers;
* :mod:`repro.core.parallel` — one multi-start round of Algorithm 2,
  in process or on a worker pool, with racing early-cancel;
* :mod:`repro.core.pool` — the persistent worker-pool service
  (warm workers, program cache by content digest, cancel slots) behind
  :class:`repro.api.session.Session`;
* :mod:`repro.core.batch` — concurrent analysis × program campaigns
  (and multi-formula SAT campaigns) over one shared session;
* :mod:`repro.core.adapters` — Limitation 1 adapters for non-F^N
  domains.
"""

from repro.core.adapters import adapt_int_param, map_solution_back
from repro.core.batch import (
    BatchJob,
    BatchResult,
    formula_jobs,
    read_formula_sources,
    run_batch,
    suite_jobs,
)
from repro.core.parallel import (
    DEFAULT_CRASH_RETRIES,
    CrashNotice,
    MultiStartOutcome,
    WorkerCrashError,
    run_multistart,
)
from repro.core.pool import WorkerPool
from repro.core.problem import AnalysisProblem
from repro.core.weak_distance import WeakDistance

__all__ = [
    "AnalysisProblem",
    "BatchJob",
    "BatchResult",
    "CrashNotice",
    "DEFAULT_CRASH_RETRIES",
    "MultiStartOutcome",
    "WeakDistance",
    "WorkerCrashError",
    "WorkerPool",
    "adapt_int_param",
    "map_solution_back",
    "formula_jobs",
    "read_formula_sources",
    "run_batch",
    "run_multistart",
    "suite_jobs",
]
