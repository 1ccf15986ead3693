"""The uniform result envelope every analysis returns.

Before this package each driver grew its own report shape
(``BoundaryReport``, ``PathResult``, ``OverflowReport``,
``CoverageReport``, ``SatResult``) with its own names for the same
facts.  :class:`AnalysisReport` is the shared envelope the
:class:`~repro.api.engine.Engine` hands back for *any* analysis:
verdict, findings, evaluation counts, timing and a per-round trace.
The analysis-specific report object survives on :attr:`AnalysisReport.
detail`, so callers that want the rich legacy shape (the experiment
table scripts, the CLI renderers) still get it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Optional, Tuple

#: The three verdict strings shared by every analysis.  ``found`` means
#: the analysis established its goal (a model, a witness, full
#: coverage, at least one overflow); ``not-found`` that it exhausted
#: its budget without doing so — which by Limitation 3 is *not* a proof
#: of absence; ``partial`` that some but not all of an enumerable goal
#: set was reached (coverage arms, overflowable instructions).
FOUND = "found"
NOT_FOUND = "not-found"
PARTIAL = "partial"


@dataclasses.dataclass
class Finding:
    """One concrete fact an analysis established.

    ``kind`` names the finding family (``boundary-condition``,
    ``path-witness``, ``overflow``, ``covered-arm``, ``model``);
    ``label`` identifies the program site or variable; ``x`` is a
    triggering input when one exists.
    """

    kind: str
    label: str
    x: Optional[Tuple[float, ...]] = None
    detail: str = ""


@dataclasses.dataclass
class RoundTrace:
    """One round of the driver loop, as the engine observed it."""

    index: int
    n_starts: int
    n_evals: int
    best_w: float
    found_zero: bool
    note: str = ""


@dataclasses.dataclass
class AnalysisReport:
    """What :meth:`repro.api.engine.Engine.run` returns for any analysis."""

    analysis: str
    target: str
    verdict: str
    findings: List[Finding] = dataclasses.field(default_factory=list)
    n_evals: int = 0
    rounds: int = 0
    elapsed_seconds: float = 0.0
    trace: List[RoundTrace] = dataclasses.field(default_factory=list)
    #: The analysis-specific report object (``BoundaryReport``,
    #: ``OverflowReport``, ``SatResult``, ...) for callers that need
    #: the full legacy shape.
    detail: Any = None
    #: Recorded sampling sequences (rounds that asked for
    #: ``record_samples``), concatenated in round / start order.
    samples: List[Tuple[Tuple[float, ...], float]] = dataclasses.field(
        default_factory=list
    )
    #: Provenance: the seed and worker count the engine ran with.
    seed: Optional[int] = None
    n_workers: int = 1
    #: True when the job was cancelled mid-run and this report was
    #: salvaged from the rounds/starts that finished before the flag
    #: landed.  The verdict and findings are then a *lower bound* on
    #: what a full run would establish — meaningful for accumulating
    #: analyses (boundary's BV set, coverage's arms, sat label sets).
    partial: bool = False
    #: Crash-salvage cycles the run needed (lost starts resubmitted
    #: after worker crashes; 0 = no worker ever crashed).
    n_crash_retries: int = 0
    #: The part of ``n_evals`` served from the session's round-outcome
    #: cache: evaluations an equal round already performed, which this
    #: run counts without performing them again.
    n_evals_cached: int = 0

    @property
    def found(self) -> bool:
        return self.verdict == FOUND

    @property
    def representatives(self) -> List[Tuple[float, ...]]:
        """The findings' triggering inputs, in finding order."""
        return [f.x for f in self.findings if f.x is not None]
