"""eval_mode invariance: verdicts must not depend on the kernel tier.

The vectorized batch kernel (:mod:`repro.fpir.batch_eval`) promises bit
parity with the scalar interpreter, lane for lane.  The consequence the
user observes — and the acceptance bar for the tier — is that every
registered analysis returns the *same report* (verdict, representative
findings, per-round eval counts, recorded samples) whether it ran with
``eval_mode="interpreter"`` or ``eval_mode="vectorized"``, serially or
with worker processes rebuilding the weak distance from a payload.
"""

import pytest

from repro.api import AnalysisReport, Engine, EngineConfig
from repro.api.registry import available_analyses

#: (analysis, target, options) triples sized for CI — one per
#: registered analysis (kept in sync by ``test_cases_cover_registry``).
CASES = [
    ("boundary", "fig2", {"n_starts": 4, "max_samples": 4000}),
    ("path", "fig2", {"n_starts": 4}),
    ("overflow", "fig2", {}),
    ("coverage", "fig2", {}),
    ("sat", "x < 1 && x + 1 >= 2", {}),
    ("inconsistency", "gsl-hyperg", {"n_starts": 2}),
]


def _fingerprint(report: AnalysisReport):
    """Everything eval_mode must not change."""
    return (
        report.verdict,
        [(f.kind, f.label, f.x) for f in report.findings],
        report.n_evals,
        [t.n_evals for t in report.trace],
        report.samples,
    )


def _run(name, target, options, eval_mode, n_workers=1, backend=None):
    config = EngineConfig(seed=23, n_workers=n_workers,
                          eval_mode=eval_mode, backend=backend)
    return Engine(config).run(name, target, **options)


def test_cases_cover_registry():
    assert sorted({name for name, _, _ in CASES}) == available_analyses()


@pytest.mark.parametrize("name,target,options", CASES)
def test_vectorized_matches_interpreter_serial(name, target, options):
    vec = _run(name, target, options, "vectorized")
    ref = _run(name, target, options, "interpreter")
    assert _fingerprint(vec) == _fingerprint(ref)


@pytest.mark.parametrize("name,target,options", CASES)
def test_vectorized_matches_interpreter_population(name, target, options,
                                                   monkeypatch):
    """The default backend scores one point at a time, so the legs
    above never reach the batch kernel; the batch-native population
    backend does, through ``Objective.evaluate_batch``."""
    from repro.fpir.batch_eval import BatchProgram

    kernel_calls = []
    run = BatchProgram.run

    def counting_run(self, *args, **kwargs):
        kernel_calls.append(1)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(BatchProgram, "run", counting_run)
    vec = _run(name, target, options, "vectorized", backend="population")
    assert kernel_calls, "the vectorized leg never ran the batch kernel"
    ref = _run(name, target, options, "interpreter", backend="population")
    assert _fingerprint(vec) == _fingerprint(ref)


@pytest.mark.slow
@pytest.mark.parametrize("name,target,options", CASES)
def test_vectorized_matches_interpreter_parallel(name, target, options):
    """Worker processes rebuild the weak distance from the payload; the
    payload must carry the tier, and parity must survive the trip."""
    vec = _run(name, target, options, "vectorized", n_workers=4)
    ref = _run(name, target, options, "interpreter", n_workers=4)
    assert _fingerprint(vec) == _fingerprint(ref)


def test_option_overrides_config():
    """A per-run ``eval_mode`` option wins over the engine default."""
    base = _run("overflow", "fig2", {}, "interpreter")
    via_option = Engine(
        EngineConfig(seed=23, eval_mode="interpreter")
    ).run("overflow", "fig2", eval_mode="vectorized")
    assert _fingerprint(via_option) == _fingerprint(base)


def test_default_mode_matches_vectorized():
    """The compiled default and the batch tier agree end to end."""
    default = _run("overflow", "fig2", {}, None)
    vec = _run("overflow", "fig2", {}, "vectorized")
    assert _fingerprint(default) == _fingerprint(vec)
