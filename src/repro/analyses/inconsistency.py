"""Inconsistency checking for GSL-convention functions (Section 6.3.2).

GSL special functions return a *status* code and write their result
into a ``gsl_sf_result`` struct (``val`` + ``err``).  Per the GSL
documentation the status should flag "error conditions such as
overflow, underflow or loss of precision".  The paper calls it an
**inconsistency** when

    ``status == GSL_SUCCESS`` and ``result.val`` or ``result.err`` is
    ``inf``, ``-inf``, ``nan`` or ``-nan``.

Our FPIR ports follow the paper's adaptation of the C interface: the
status and the result struct are returned through program globals
(``status``, ``result_val``, ``result_err``).  The checker replays the
inputs produced by overflow detection and classifies each inconsistency
with a per-benchmark root-cause classifier (provided by the
:mod:`repro.gsl` port modules, mirroring the paper's gdb analysis).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence, Tuple

from repro.fp.ieee import is_finite
from repro.fpir.compiler import compile_program
from repro.fpir.program import Program

#: GSL_SUCCESS under the paper's environment.
GSL_SUCCESS = 0

#: classifier(x, status, val, err) -> human-readable root cause
RootCauseClassifier = Callable[[Tuple[float, ...], int, float, float], str]


@dataclasses.dataclass
class InconsistencyFinding:
    """One Table 5 row."""

    x_star: Tuple[float, ...]
    status: int
    val: float
    err: float
    root_cause: str

    @property
    def is_bug_candidate(self) -> bool:
        """Heuristic from the paper (Section 6.3.2): inconsistencies
        explained by large inputs/operands or a negative sqrt operand
        are "benign"; the rest (the airy division-by-zero and
        inaccurate-cosine cases) deserve developer attention."""
        benign_markers = (
            "large input",
            "large operand",
            "large exponent",
            "negative in sqrt",
        )
        return not any(m in self.root_cause.lower() for m in benign_markers)


class InconsistencyChecker:
    """Replays inputs against a GSL-convention FPIR program."""

    def __init__(
        self,
        program: Program,
        status_var: str = "status",
        val_var: str = "result_val",
        err_var: str = "result_err",
        classifier: Optional[RootCauseClassifier] = None,
    ) -> None:
        self.program = program
        self.compiled = compile_program(program)
        self.status_var = status_var
        self.val_var = val_var
        self.err_var = err_var
        self.classifier = classifier

    def observe(self, x: Sequence[float]) -> Tuple[int, float, float]:
        """Run the function and read (status, val, err)."""
        result = self.compiled.run(tuple(x))
        g = result.globals
        return (
            int(g.get(self.status_var, GSL_SUCCESS)),
            float(g.get(self.val_var, 0.0)),
            float(g.get(self.err_var, 0.0)),
        )

    def check(self, x: Sequence[float]) -> Optional[InconsistencyFinding]:
        """Return a finding when ``x`` exposes an inconsistency."""
        status, val, err = self.observe(x)
        if status != GSL_SUCCESS:
            return None
        if is_finite(val) and is_finite(err):
            return None
        cause = "unclassified"
        if self.classifier is not None:
            cause = self.classifier(tuple(x), status, val, err)
        return InconsistencyFinding(
            x_star=tuple(float(v) for v in x),
            status=status,
            val=val,
            err=err,
            root_cause=cause,
        )

    def sweep(self, inputs: Sequence[Sequence[float]]) -> List[InconsistencyFinding]:
        """Check many inputs; deduplicate by root cause + non-finite
        pattern so Table 5 lists each distinct issue once."""
        findings: List[InconsistencyFinding] = []
        seen = set()
        for x in inputs:
            finding = self.check(x)
            if finding is None:
                continue
            key = (
                finding.root_cause,
                _sign_pattern(finding.val),
                _sign_pattern(finding.err),
            )
            if key in seen:
                continue
            seen.add(key)
            findings.append(finding)
        return findings


def _sign_pattern(v: float) -> str:
    if v != v:
        return "nan"
    if v == float("inf"):
        return "+inf"
    if v == float("-inf"):
        return "-inf"
    return "finite"


# ---------------------------------------------------------------------------
# The engine driver (repro.api)
# ---------------------------------------------------------------------------


from repro.analyses.overflow import OverflowAnalysis  # noqa: E402


class InconsistencyAnalysis(OverflowAnalysis):
    """Section 6.3.2 through the unified engine.

    Inconsistency checking is overflow detection plus a replay sweep:
    run Algorithm 3 to collect overflow-triggering inputs, then replay
    each against the GSL-convention program and flag the runs where
    ``status == GSL_SUCCESS`` but ``val``/``err`` is non-finite.  This
    driver *is* :class:`~repro.analyses.overflow.OverflowAnalysis`; its
    :meth:`finish` appends the sweep's findings after the overflow ones
    and reads the verdict from them.
    """

    name = "inconsistency"
    help = "GSL status/result inconsistency checking (Section 6.3.2)"
    smoke_target = "gsl-hyperg"

    def finish(self, state):
        from repro.api.report import FOUND, NOT_FOUND, Finding

        report = super().finish(state)
        inputs = report.detail.inputs
        sweep = InconsistencyChecker(state.program).sweep(inputs) if inputs else []
        report.findings.extend(
            Finding(
                kind="inconsistency",
                label="status==SUCCESS, non-finite result",
                x=item.x_star,
                detail=f"val={item.val:.3g} err={item.err:.3g}",
            )
            for item in sweep
        )
        report.verdict = FOUND if sweep else NOT_FOUND
        return report

    @classmethod
    def summarize(cls, report) -> str:
        n = sum(1 for f in report.findings if f.kind == "inconsistency")
        return f"{n} inconsistencies"
