"""The XSat-style QF-FP satisfiability solver (Instance 5).

Decides a CNF formula by minimizing its ``R`` program
(:func:`repro.sat.translate.formula_to_distance_program`):

* ``R(x*) == 0``  →  **SAT** with model ``x*`` (always re-verified by
  direct evaluation of the formula — the decidable-membership guard);
* best minimum > 0 →  **UNKNOWN(likely-UNSAT)**: by Theorem 3.3 a true
  positive minimum proves UNSAT, but an MO backend may return a
  suboptimal minimum (Limitation 3), so the solver reports the weaker
  verdict honestly.

A uniform-random baseline solver is included for the ablation
benchmarks (it plays the role the fuzzing baselines play in the
XSat/CoverMe papers).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Dict, Optional, Sequence

from repro.api.base import Analysis, RoundPlan
from repro.api.report import FOUND, NOT_FOUND, AnalysisReport, Finding
from repro.core.parallel import MultiStartOutcome
from repro.fpir.compiler import compile_program
from repro.mo.starts import StartSampler, wide_log_sampler
from repro.sat.distance import ULP
from repro.sat.formula import Formula
from repro.sat.translate import (
    formula_to_branch_program,
    formula_to_weak_distance,
)
from repro.util.rng import make_rng


class SatVerdict(enum.Enum):
    SAT = "sat"
    #: No model found; UNSAT only if the backend reached the true
    #: minimum (not guaranteed — Limitation 3).
    UNKNOWN = "unknown"


@dataclasses.dataclass
class SatResult:
    verdict: SatVerdict
    model: Optional[Dict[str, float]]
    r_star: float
    n_evals: int

    @property
    def is_sat(self) -> bool:
        return self.verdict is SatVerdict.SAT


def evaluate_formula(formula: Formula, x: Sequence[float]) -> bool:
    """Direct (oracle) evaluation of the formula on a candidate model.

    Executes the branch program, so the semantics — including calls
    like ``tan`` — is exactly the analyzed one.
    """
    program = formula_to_branch_program(formula)
    result = compile_program(program).run(tuple(float(v) for v in x))
    return bool(result.value == 1.0)


def interpret_r_minimum(
    formula: Formula, best, n_evals: int
) -> SatResult:
    """Algorithm 2's verdict for the SAT instance, with the
    decidable-membership re-check (direct formula evaluation)."""
    if (
        best is not None
        and best.f_star == 0.0
        and evaluate_formula(formula, best.x_star)
    ):
        return SatResult(
            verdict=SatVerdict.SAT,
            model=formula.assignment(best.x_star),
            r_star=0.0,
            n_evals=n_evals,
        )
    return SatResult(
        verdict=SatVerdict.UNKNOWN,
        model=None,
        r_star=float("inf") if best is None else best.f_star,
        n_evals=n_evals,
    )


# ---------------------------------------------------------------------------
# The engine driver (repro.api)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _SatState:
    """Per-run state of :class:`SatAnalysis`."""

    formula: Formula
    weak_distance: Any
    n_starts: int
    sampler: StartSampler
    outcome: Optional[MultiStartOutcome] = None


class SatAnalysis(Analysis):
    """Instance 5 through the unified engine.

    The formula's ``R`` program travels as an ordinary weak-distance
    payload (:func:`repro.sat.translate.formula_to_weak_distance`), so
    ``EngineConfig.n_workers`` fans the solver's starts across the pool
    exactly like every other analysis.
    """

    name = "sat"
    help = "QF-FP satisfiability (Instance 5, XSat)"
    target_kind = "formula"
    default_n_starts = 20
    default_sampler = wide_log_sampler()
    default_backend_options = {"niter": 50}
    smoke_target = "x < 1 && x + 1 >= 2"
    smoke_options = {"n_starts": 5, "niter": 15}

    def describe_target(self, target: Formula) -> str:
        return str(target)

    def prepare(
        self, target: Formula, spec: Any, options: Dict[str, Any], config
    ) -> _SatState:
        metric = options.get("metric") or ULP
        return _SatState(
            formula=target,
            weak_distance=formula_to_weak_distance(
                target, metric, eval_mode=self.eval_mode(config, options)
            ),
            n_starts=self.starts_per_round(config, options),
            sampler=self.sampler(config, options),
        )

    def plan_round(
        self, state: _SatState, round_index: int
    ) -> Optional[RoundPlan]:
        if round_index > 0:
            return None
        return RoundPlan(
            weak_distance=state.weak_distance,
            n_inputs=state.formula.n_variables,
            n_starts=state.n_starts,
            sampler=state.sampler,
            note="minimize R",
        )

    def absorb(
        self,
        state: _SatState,
        round_index: int,
        outcome: MultiStartOutcome,
    ) -> None:
        state.outcome = outcome

    def finish(self, state: _SatState) -> AnalysisReport:
        outcome = state.outcome
        detail = interpret_r_minimum(
            state.formula,
            outcome.best if outcome else None,
            outcome.n_evals if outcome else 0,
        )
        findings = (
            [
                Finding(
                    kind="model",
                    label=",".join(state.formula.variables),
                    x=tuple(detail.model.values()),
                    detail=str(detail.model),
                )
            ]
            if detail.model
            else []
        )
        return AnalysisReport(
            analysis=self.name,
            target=str(state.formula),
            verdict=FOUND if detail.is_sat else NOT_FOUND,
            findings=findings,
            detail=detail,
        )

    # -- CLI hooks -------------------------------------------------------------

    @classmethod
    def configure_parser(cls, parser) -> None:
        parser.add_argument(
            "target",
            nargs="?",
            default=cls.smoke_target,
            help=f'constraint, e.g. "x < 1 && x + 1 >= 2" '
            f"(default: {cls.smoke_target!r})",
        )
        parser.add_argument("--metric", choices=("ulp", "naive"), default="ulp")
        parser.add_argument(
            "--range",
            type=float,
            default=None,
            metavar="R",
            help="draw start points from [-R, R] (default: "
            "magnitude-aware log sampling)",
        )

    @classmethod
    def options_from_args(cls, args) -> Dict[str, Any]:
        from repro.mo.starts import uniform_sampler
        from repro.sat.distance import NAIVE

        options: Dict[str, Any] = {
            "metric": ULP if args.metric == "ulp" else NAIVE,
        }
        if args.range is not None:
            options["start_sampler"] = uniform_sampler(-args.range, args.range)
        return options

    @classmethod
    def render(cls, report: AnalysisReport) -> str:
        detail: SatResult = report.detail
        lines = [
            f"constraint: {report.target}",
            f"verdict: {detail.verdict.value}  "
            f"({detail.n_evals} evaluations)",
        ]
        if detail.model:
            for name, value in detail.model.items():
                lines.append(f"  {name} = {value!r}")
        else:
            lines.append(f"  best minimum found: {detail.r_star:.6g}")
        return "\n".join(lines)

    @classmethod
    def summarize(cls, report: AnalysisReport) -> str:
        detail: SatResult = report.detail
        if detail.is_sat:
            return "sat"
        return f"unknown (best R = {detail.r_star:.3g})"

    @classmethod
    def batch_options(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        """Multi-formula campaigns (``repro batch --formulas``) budget
        the solver by starts per formula."""
        return {"n_starts": params.get("n_starts")}


class RandomSamplingSolver:
    """Baseline: evaluate the formula at random points."""

    def __init__(
        self,
        n_samples: int = 20000,
        start_sampler: Optional[StartSampler] = None,
    ) -> None:
        self.n_samples = n_samples
        self.start_sampler = start_sampler or wide_log_sampler()

    def solve(
        self, formula: Formula, seed: Optional[int] = None
    ) -> SatResult:
        rng = make_rng(seed)
        program = formula_to_branch_program(formula)
        compiled = compile_program(program)
        for i in range(self.n_samples):
            x = self.start_sampler(rng, formula.n_variables)
            if compiled.run(x).value == 1.0:
                return SatResult(
                    verdict=SatVerdict.SAT,
                    model=formula.assignment(x),
                    r_star=0.0,
                    n_evals=i + 1,
                )
        return SatResult(
            verdict=SatVerdict.UNKNOWN,
            model=None,
            r_star=float("inf"),
            n_evals=self.n_samples,
        )
