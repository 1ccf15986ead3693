"""Instance 4: branch-coverage-based testing (the CoverMe instance [17]).

The weak distance is parameterized by the set ``B`` of already-covered
branch *arms* (label:T / label:F), kept as a runtime label set so no
re-instrumentation is needed between rounds:

* ``w_init = 0``;
* before each branch with comparison condition ``a ⊳ b``::

      if (lbl:T not in B) w += (cond ? 0 : dist_to_true);
      if (lbl:F not in B) w += (cond ? dist_to_false : 0);

  so ``W(x) == 0`` iff the execution of ``x`` visits, for every branch
  it reaches, only arms that are either already covered or newly
  covered by this very execution — i.e. minimizing W drives inputs
  toward *uncovered* arms (the FOO_R construction of [17]).
* each arm's prologue records a coverage event, from which the driver
  grows ``B`` after every round.

The driver loops (minimize → replay → grow B) until full coverage or a
round budget, and reports the classic branch-coverage percentage.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analyses.path import branch_distance
from repro.api.base import Analysis, RoundPlan
from repro.api.report import FOUND, NOT_FOUND, PARTIAL, AnalysisReport, Finding
from repro.core.parallel import MultiStartOutcome
from repro.core.weak_distance import WeakDistance
from repro.fpir.instrument import InstrumentationSpec, instrument
from repro.fpir.labels import BranchSite
from repro.fpir.nodes import (
    Assign,
    BinOp,
    Block,
    Compare,
    Const,
    If,
    InLabelSet,
    RecordEvent,
    Stmt,
    Ternary,
    UnOp,
    Var,
)
from repro.fpir.program import Program
from repro.mo.starts import uniform_sampler

#: Name of the runtime set of covered branch arms.
B_SET = "B"

#: Event kind marking execution of a branch arm.
COVER_EVENT = "cover"


def _arm(label: str, taken: bool) -> str:
    return f"{label}:{'T' if taken else 'F'}"


def executed_arms(weak_distance: WeakDistance, x: Sequence[float]) -> Set[str]:
    """Replay ``x`` and collect the branch arms it covers."""
    _, counters = weak_distance.replay(x)
    return {
        label
        for (kind, label), count in counters.items()
        if kind == COVER_EVENT and count > 0
    }


def all_branch_arms(index) -> List[str]:
    """Every arm (label:T / label:F) of the indexed branches."""
    return [
        _arm(site.label, taken)
        for site in index.branches
        for taken in (True, False)
    ]


def coverage_spec(w_var: str = "w") -> InstrumentationSpec:
    """The FOO_R-style coverage weak distance."""

    def before_branch(site: BranchSite, stmt) -> List[Stmt]:
        cond = stmt.cond
        if isinstance(cond, Compare):
            dist_true = branch_distance(cond, True)
            dist_false = branch_distance(cond, False)
        else:
            dist_true = Ternary(cond, Const(0.0), Const(1.0))
            dist_false = Ternary(cond, Const(1.0), Const(0.0))
        out: List[Stmt] = []
        for taken, dist in ((True, dist_true), (False, dist_false)):
            guard = UnOp("not", InLabelSet(B_SET, _arm(site.label, taken)))
            update = Assign(w_var, BinOp("fadd", Var(w_var), dist))
            out.append(If(guard, Block((update,)), Block(())))
        return out

    def arm_prologue(site: BranchSite, taken: bool) -> List[Stmt]:
        return [RecordEvent(COVER_EVENT, _arm(site.label, taken))]

    return InstrumentationSpec(
        w_var=w_var,
        w_init=0.0,
        before_branch=before_branch,
        arm_prologue=arm_prologue,
        label_sets=(B_SET,),
    )


@dataclasses.dataclass
class CoverageReport:
    """Outcome of the coverage loop."""

    total_arms: int
    covered_arms: Set[str]
    #: One representative input per newly covered arm.
    witnesses: Dict[str, Tuple[float, ...]]
    rounds: int
    n_evals: int

    @property
    def coverage(self) -> float:
        """Branch coverage in [0, 1]."""
        if self.total_arms == 0:
            return 1.0
        return len(self.covered_arms) / self.total_arms


# ---------------------------------------------------------------------------
# The engine driver (repro.api)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _CoverageState:
    """Per-run state of :class:`CoverageAnalysis`."""

    program: Program
    weak_distance: WeakDistance
    covered: Set[str]
    all_arms: List[str]
    budget: int
    n_starts: int
    sampler: Any
    witnesses: Dict[str, Tuple[float, ...]] = dataclasses.field(
        default_factory=dict
    )
    rounds: int = 0
    n_evals: int = 0


class CoverageAnalysis(Analysis):
    """Instance 4 through the unified engine: the CoverMe loop
    (minimize, replay, grow ``B``) with each round's starts fanned
    across the worker pool."""

    name = "coverage"
    help = "branch-coverage-based testing (Instance 4, CoverMe)"
    default_n_starts = 4
    default_max_rounds = 30
    default_sampler = uniform_sampler(-100.0, 100.0)
    default_backend_options = {"niter": 40}
    smoke_target = "fig2"
    smoke_options = {"n_starts": 2, "max_rounds": 6, "niter": 10}

    def prepare(
        self, target: Program, spec: Any, options: Dict[str, Any], config
    ) -> _CoverageState:
        weak_distance = WeakDistance(
            instrument(target, coverage_spec()),
            eval_mode=self.eval_mode(config, options),
        )
        covered = weak_distance.label_sets.setdefault(B_SET, set())
        covered.clear()
        budget = self.round_budget(config, options)
        return _CoverageState(
            program=target,
            weak_distance=weak_distance,
            covered=covered,
            all_arms=all_branch_arms(weak_distance.instrumented.index),
            budget=budget if budget is not None else 30,
            n_starts=self.starts_per_round(config, options),
            sampler=self.sampler(config, options),
        )

    def plan_round(
        self, state: _CoverageState, round_index: int
    ) -> Optional[RoundPlan]:
        if len(state.covered) >= len(state.all_arms) or round_index >= state.budget:
            return None
        return RoundPlan(
            weak_distance=state.weak_distance,
            n_inputs=state.program.num_inputs,
            n_starts=state.n_starts,
            sampler=state.sampler,
            note=f"grow B ({len(state.covered)}/{len(state.all_arms)} arms)",
        )

    def absorb(
        self,
        state: _CoverageState,
        round_index: int,
        outcome: MultiStartOutcome,
    ) -> None:
        state.rounds += 1
        state.n_evals += outcome.n_evals
        # Every start's final iterate is a candidate test input — a
        # replay costs one execution vs the thousands the minimizer
        # spent reaching it, so harvest them all (in start order, for
        # the serial/parallel determinism guarantee).
        for attempt in outcome.attempts:
            newly = executed_arms(state.weak_distance, attempt.x_star) - state.covered
            for arm in sorted(newly):
                state.witnesses[arm] = attempt.x_star
            state.covered |= newly

    def finish(self, state: _CoverageState) -> AnalysisReport:
        detail = CoverageReport(
            total_arms=len(state.all_arms),
            covered_arms=set(state.covered),
            witnesses=dict(state.witnesses),
            rounds=state.rounds,
            n_evals=state.n_evals,
        )
        if detail.coverage == 1.0:
            verdict = FOUND
        elif detail.covered_arms:
            verdict = PARTIAL
        else:
            verdict = NOT_FOUND
        findings = [
            Finding(kind="covered-arm", label=arm, x=x)
            for arm, x in sorted(state.witnesses.items())
        ]
        return AnalysisReport(
            analysis=self.name,
            target="",
            verdict=verdict,
            findings=findings,
            detail=detail,
        )

    # -- CLI hooks -------------------------------------------------------------

    @classmethod
    def render(cls, report: AnalysisReport) -> str:
        from repro.util.tables import format_table

        detail: CoverageReport = report.detail
        lines = [
            f"{report.target}: {100.0 * detail.coverage:.1f}% branch "
            f"coverage ({len(detail.covered_arms)}/{detail.total_arms} "
            f"arms, {detail.rounds} rounds)"
        ]
        rows = [
            (arm, f"{x[0]:.6g}" if len(x) == 1 else ", ".join(f"{v:.4g}" for v in x))
            for arm, x in sorted(detail.witnesses.items())
        ]
        lines.append(format_table(("arm", "witness"), rows))
        return "\n".join(lines)

    @classmethod
    def summarize(cls, report: AnalysisReport) -> str:
        detail: CoverageReport = report.detail
        return (
            f"{100.0 * detail.coverage:.1f}% branch coverage "
            f"({len(detail.covered_arms)}/{detail.total_arms} arms)"
        )

    @classmethod
    def batch_options(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        from repro.mo.starts import wide_log_sampler

        return {
            "max_rounds": params.get("rounds"),
            "start_sampler": wide_log_sampler(-12.0, 10.0),
        }
