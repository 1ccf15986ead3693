"""Whole-project incremental scanning: "CI for floating-point bugs".

The analyses find boundary/overflow/inconsistency bugs in *one*
numerical routine; this package turns that per-function capability
into a repository-level tool::

    repro scan path/ --analyses boundary,overflow

* :mod:`repro.scan.walker` — deterministic project-tree walk with
  ignore patterns, admitting ``.py`` and ``.c`` sources;
* :mod:`repro.scan.classify` — finds every function and classifies it
  exactly, lowerable / not-lowerable (with a located skip reason), by
  attempting its real lowering; ``.c`` files dispatch to the C
  frontend's classifier (:mod:`repro.cfront`);
* :mod:`repro.scan.store` — the persistent incremental results store
  under ``.repro-scan/``, keyed by the lowered-FPIR content digest the
  worker payload cache already uses, plus the findings baseline;
* :mod:`repro.scan.orchestrator` — discovery → digest → store lookup
  → a prioritized :meth:`repro.api.session.Session.submit` campaign
  over the cache misses only, one job per (digest, analysis);
* :mod:`repro.scan.report` — the scan report, its text/JSON renderings
  and the CI exit-code contract (0 clean / 1 findings / 3 partial).
"""

from repro.scan.classify import DiscoveredFunction, discover_functions
from repro.scan.orchestrator import ScanConfig, scan_project
from repro.scan.report import FunctionResult, ScanReport, scan_exit_code
from repro.scan.store import Baseline, ResultStore, program_digest
from repro.scan.walker import walk_source_files

__all__ = [
    "Baseline",
    "DiscoveredFunction",
    "FunctionResult",
    "ResultStore",
    "ScanConfig",
    "ScanReport",
    "discover_functions",
    "program_digest",
    "scan_exit_code",
    "scan_project",
    "walk_source_files",
]
