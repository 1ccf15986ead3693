"""Algorithm 2 for a designer's own weak distance, as an analysis.

The paper's Section 5 has three roles: the Client poses ⟨Prog; S⟩ (an
:class:`~repro.core.problem.AnalysisProblem`), the Analysis Designer
writes ``w_init`` and the update stubs (an
:class:`~repro.fpir.instrument.InstrumentationSpec`), and the
Reduction Kernel runs Algorithm 2 for the pair.  The kernel is the
session's driver loop running :class:`ReductionAnalysis`, the loop
every registered analysis runs through::

    report = Engine(config).run(ReductionAnalysis, problem, spec=spec)

One round of ``n_starts`` starts (default 8) minimizes W.  The verdict
is ``found`` for a zero the problem's membership oracle accepts (or
has no oracle to ask), ``partial`` for a zero the oracle rejects (W
breaks Def. 3.1(b), Limitation 2; ``path`` reports a zero its replay
rejects the same way), and ``not-found`` for a positive minimum (no
proof that S is empty, Limitation 3).  The report's ``detail`` is the
round's :class:`~repro.core.parallel.MultiStartOutcome`.  The spec is
Python code, so the analysis is not registered by name: callers pass
the class to ``Engine.run`` or ``Session.run``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from repro.api.base import Analysis, RoundPlan
from repro.api.report import FOUND, NOT_FOUND, PARTIAL, AnalysisReport, Finding
from repro.core.parallel import MultiStartOutcome
from repro.core.problem import AnalysisProblem
from repro.core.weak_distance import WeakDistance
from repro.fpir.instrument import InstrumentationSpec, instrument

#: Finding detail by the membership oracle's answer for ``x*``.
_MEMBERSHIP = {True: "verified", False: "rejected", None: "unverified"}


@dataclasses.dataclass
class _ReductionState:
    """Per-run state of :class:`ReductionAnalysis`: its one round."""

    problem: AnalysisProblem
    plan: RoundPlan
    outcome: Optional[MultiStartOutcome] = None


class ReductionAnalysis(Analysis):
    """Algorithm 2: one multi-start round of the designer's W for the
    Client's problem, and the membership re-check of Limitation 2."""

    name = "reduction"
    help = "Algorithm 2 for a designer's instrumentation spec"

    def resolve_target(self, target: Any) -> AnalysisProblem:
        """An :class:`AnalysisProblem` as given; any program target
        wrapped in one that has no membership oracle."""
        if isinstance(target, AnalysisProblem):
            return target
        return AnalysisProblem(super().resolve_target(target))

    def prepare(
        self, target: AnalysisProblem, spec: Any, options: Dict[str, Any], config
    ) -> _ReductionState:
        if not isinstance(spec, InstrumentationSpec):
            raise TypeError(
                "ReductionAnalysis takes the designer's InstrumentationSpec "
                f"as its spec, got {type(spec).__name__}"
            )
        weak_distance = WeakDistance(
            instrument(target.program, spec), eval_mode=self.eval_mode(config, options)
        )
        plan = RoundPlan(
            weak_distance=weak_distance,
            n_inputs=target.n_inputs,
            n_starts=self.starts_per_round(config, options),
            sampler=self.sampler(config, options),
            note="minimize the designer's weak distance",
        )
        return _ReductionState(problem=target, plan=plan)

    def plan_round(
        self, state: _ReductionState, round_index: int
    ) -> Optional[RoundPlan]:
        return state.plan if round_index == 0 else None

    def absorb(
        self, state: _ReductionState, round_index: int, outcome: MultiStartOutcome
    ) -> None:
        state.outcome = outcome

    def finish(self, state: _ReductionState) -> AnalysisReport:
        best = state.outcome.best if state.outcome else None
        findings = []
        verdict = NOT_FOUND
        if best is not None and best.f_star == 0.0:
            member = state.problem.contains(best.x_star)
            verdict = PARTIAL if member is False else FOUND
            label = state.problem.description or state.problem.program.entry
            findings.append(
                Finding("zero", label, x=best.x_star, detail=_MEMBERSHIP[member])
            )
        return AnalysisReport(
            analysis=self.name,
            target="",
            verdict=verdict,
            findings=findings,
            detail=state.outcome,
        )
