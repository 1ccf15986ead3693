"""One engine, five analyses: the unified front-end.

::

    from repro.api import Engine, EngineConfig

    report = Engine(
        config=EngineConfig(seed=1, n_workers=4, backend="portfolio")
    ).run("coverage", "fig2")

Every analysis — boundary values, path reachability, overflow
detection, coverage testing, QF-FP satisfiability — runs through the
same driver loop: ask the analysis for its next :class:`~repro.api.
base.RoundPlan`, derive the round's per-start generators
(:func:`repro.util.rng.derive_round_rngs`), fan the starts across the
worker pool, and hand the merged outcome back to the analysis.  The
loop itself lives in :class:`repro.api.session.Session`;
:meth:`Engine.run` is a thin synchronous wrapper over a one-shot
session.  Because the per-start randomness is a pure function of
``(seed, round, start)`` and the engine runs the pool without racing
early-cancel by default (:attr:`EngineConfig.deterministic`), a serial
run and an ``n_workers=4`` run with the same seed return identical
verdicts and representatives.

Long-lived callers should hold a :class:`~repro.api.session.Session`
instead of calling ``Engine.run`` in a loop: a session keeps its
workers warm, caches compiled weak distances by program content hash
across jobs and rounds, and serves a round equal to one it already
ran from its round-outcome cache.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Type, Union

from repro.api.base import Analysis
from repro.api.report import AnalysisReport
from repro.core.parallel import DEFAULT_CRASH_RETRIES
from repro.mo.base import MOBackend
from repro.mo.starts import StartSampler


@dataclasses.dataclass
class EngineConfig:
    """Tunables shared by every analysis run."""

    seed: Optional[int] = None
    #: Worker processes for a session built with this config, which
    #: fans each round's starts across a pool of this many.  A job's
    #: own config (``Session.submit``/``run``) cannot add workers: the
    #: session's pool, or none, runs every round.
    n_workers: int = 1
    #: Backend instance or :mod:`repro.mo.registry` name (``None`` =
    #: basinhopping with the analysis's default tuning).
    backend: Optional[Union[str, MOBackend]] = None
    #: Tuning forwarded to :func:`repro.mo.registry.resolve_backend`
    #: (e.g. ``{"niter": 60}``); overrides the analysis defaults.
    backend_options: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Starts per round (``None`` = analysis default).
    n_starts: Optional[int] = None
    #: Round budget for stateful drivers (``None`` = analysis default).
    max_rounds: Optional[int] = None
    #: Starting-point sampler (``None`` = analysis default).
    start_sampler: Optional[StartSampler] = None
    #: Crash-salvage cycles one round may spend resubmitting lost
    #: starts after a worker crash (raising backend or process death)
    #: before the job fails with
    #: :class:`~repro.core.parallel.WorkerCrashError`.  Completed
    #: sibling starts are never discarded, and retried starts replay
    #: their shipped generators byte-identically, so a healed run
    #: matches a crash-free serial run exactly.
    max_crash_retries: int = DEFAULT_CRASH_RETRIES
    #: Evaluation tier for every weak distance the analyses build:
    #: ``"compiled"`` (default), ``"interpreter"``, or ``"vectorized"``
    #: — the batched NumPy kernel tier
    #: (:mod:`repro.fpir.batch_eval`), which scores whole candidate
    #: populations per call with bit-parity to the scalar tiers, so
    #: verdicts, representatives and samples are ``eval_mode``-
    #: invariant.
    eval_mode: Optional[str] = None
    #: ``True`` (default): parallel rounds skip the racing early-cancel
    #: so serial and parallel runs are bit-identical.  ``False``: race
    #: the starts — faster, same verdict, but the representative may
    #: come from whichever start reached zero first (the CLI's
    #: ``--racing``).
    deterministic: bool = True


class Engine:
    """The facade: ``Engine(config).run(analysis, target, spec)``."""

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()

    def run(
        self,
        analysis: Union[str, Type[Analysis], Analysis],
        target: Any,
        spec: Any = None,
        **options: Any,
    ) -> AnalysisReport:
        """Run one analysis end to end and return the uniform report.

        ``analysis`` is a registry name (``"boundary"``, ``"path"``,
        ``"overflow"``/``"fpod"``, ``"coverage"``, ``"sat"``), an
        :class:`Analysis` subclass (such as
        :class:`~repro.analyses.reduction.ReductionAnalysis`, Algorithm
        2 for a designer's spec), or an instance.  ``target`` is any
        first-class target form (:mod:`repro.api.targets`): a suite
        name, a Python callable or ``pkg.mod:fn`` / ``file.py::fn``
        spec (lowered to FPIR by :mod:`repro.fpir.frontend`), a
        :class:`~repro.fpir.program.Program`, a
        :class:`~repro.api.targets.Target` — or, for ``sat``, a
        formula or constraint string.  ``spec`` carries the analysis-specific
        specification (a :class:`~repro.analyses.path.PathSpec`, a
        boundary site filter, ...); ``options`` the analysis-specific
        knobs (``max_samples``, ``metric``, ...).

        This is a one-shot session: workers (if any) are spawned for
        this run and torn down after.
        """
        from repro.api.session import Session

        with Session(config=self.config) as session:
            return session.run(analysis, target, spec=spec, **options)
