"""The Engine facade: one entry point, five analyses.

The acceptance bar for the unified API: every registered analysis runs
through ``Engine.run``, and a serial run and an ``n_workers=4`` run
with the same seed return identical verdicts and representatives (the
engine's deterministic no-racing mode).
"""

import math

import pytest

from repro.api import Engine, EngineConfig, FOUND, AnalysisReport

#: (analysis, target, options) triples sized for CI.
CASES = [
    ("boundary", "fig2", {"n_starts": 6, "max_samples": 6000}),
    ("path", "fig2", {"n_starts": 6}),
    ("overflow", "fig2", {}),
    ("coverage", "fig2", {}),
    ("sat", "x < 1 && x + 1 >= 2", {}),
]


def _fingerprint(report: AnalysisReport):
    """Verdict + representatives: what serial/parallel must agree on."""
    return (
        report.verdict,
        [(f.kind, f.label, f.x) for f in report.findings],
    )


class TestSerialParallelAgreement:
    @pytest.mark.parametrize("name,target,options", CASES)
    def test_same_seed_same_verdict_and_representatives(
        self, name, target, options
    ):
        reports = [
            Engine(EngineConfig(seed=11, n_workers=n_workers)).run(
                name, target, **options
            )
            for n_workers in (1, 4)
        ]
        serial, parallel = reports
        assert _fingerprint(serial) == _fingerprint(parallel)
        # The deterministic (non-racing) default is bit-identical, not
        # just verdict-identical: same per-round eval counts and the
        # same recorded samples.
        assert serial.n_evals == parallel.n_evals
        assert [t.n_evals for t in serial.trace] == [
            t.n_evals for t in parallel.trace
        ]
        assert serial.samples == parallel.samples
        assert serial.n_workers == 1 and parallel.n_workers == 4


class TestEnvelope:
    def test_report_envelope_is_uniform(self):
        report = Engine(EngineConfig(seed=2)).run("coverage", "fig2")
        assert report.analysis == "coverage"
        assert report.target
        assert report.rounds == len(report.trace) > 0
        assert report.n_evals == sum(t.n_evals for t in report.trace)
        assert report.elapsed_seconds > 0.0
        assert report.detail is not None
        assert report.seed == 2

    def test_alias_reports_canonical_name(self):
        report = Engine(EngineConfig(seed=3)).run("fpod", "fig2")
        assert report.analysis == "overflow"

    def test_sat_constraint_string_target(self):
        report = Engine(EngineConfig(seed=4)).run(
            "sat", "x < 1 && x + 1 >= 2"
        )
        assert report.verdict == FOUND
        assert report.detail.model["x"] == 0.9999999999999999

    def test_unknown_analysis_raises(self):
        with pytest.raises(KeyError, match="unknown analysis"):
            Engine().run("mystery", "fig2")

    def test_round_trace_records_stateful_progress(self):
        report = Engine(EngineConfig(seed=5)).run("overflow", "fig2")
        assert all(
            math.isfinite(t.best_w) or t.best_w == math.inf
            for t in report.trace
        )
        assert [t.index for t in report.trace] == list(
            range(report.rounds)
        )


class TestSatParallelPayload:
    def test_sat_honors_n_workers(self):
        """ROADMAP open item: the R-program ships through the parallel
        payload, so the SAT instance takes n_workers like the rest."""
        serial = Engine(EngineConfig(seed=9, n_workers=1)).run(
            "sat", "x*x == 2 && x > 0", n_starts=6
        )
        parallel = Engine(EngineConfig(seed=9, n_workers=4)).run(
            "sat", "x*x == 2 && x > 0", n_starts=6
        )
        assert serial.verdict == parallel.verdict
        assert serial.detail.model == parallel.detail.model


class TestRemovedShims:
    def test_deleted_names_are_gone(self):
        """The deprecated drivers and shims are deleted, not hidden:
        the engine and `repro run <analysis>` are the only surface."""
        import importlib

        import repro
        import repro.analyses
        import repro.api.targets
        import repro.core
        import repro.core.batch
        import repro.core.parallel
        import repro.sat
        from repro.analyses.inconsistency import InconsistencyAnalysis
        from repro.analyses.overflow import _OverflowState
        from repro.api.base import Analysis
        from repro.cli import main
        from repro.core.batch import BatchJob, suite_jobs
        from repro.core.parallel import run_multistart

        # The second Algorithm-2 driver went when ReductionAnalysis
        # brought Algorithm 2 into the session's driver loop.
        kernel_api = ("KernelConfig", "ReductionKernel", "ReductionOutcome", "Verdict")
        gone = {
            repro: kernel_api,
            repro.core: kernel_api,
            repro.analyses: (
                "BoundaryValueAnalysis",
                "PathReachability",
                "OverflowDetection",
                "BranchCoverageTesting",
            ),
            repro.sat: ("XSatSolver",),
            repro.api.targets: ("_file_target",),
            repro.core.batch: ("_job_request",),
            repro.core.parallel: ("_init_worker", "_run_start", "_WORKER_STATE"),
        }
        for module, names in gone.items():
            for name in names:
                assert not hasattr(module, name), (module.__name__, name)
        for module in ("repro.core.kernel", "repro.core.result"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        assert not hasattr(Analysis, "takes_program")
        assert "check_inconsistency" not in _OverflowState.__dataclass_fields__
        assert "prepare" not in vars(InconsistencyAnalysis)
        with pytest.raises(TypeError):
            BatchJob(analysis="coverage", program="fig2")
        with pytest.raises(TypeError):
            suite_jobs(analyses=["coverage"], programs=["fig2"])
        with pytest.raises(TypeError):
            run_multistart(None, None, [], n_workers=2)
        with pytest.raises(TypeError):
            EngineConfig(pool=None)
        for argv in (
            ["fpod"],
            ["boundary"],
            ["coverage"],
            ["sat"],
            ["run", "overflow", "fig2", "--inconsistency"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
