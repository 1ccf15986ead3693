"""The first-class Target API: coercion, resolution, engine parity.

The acceptance bar for the target redesign: frontend-compiled
fig1a/fig1b/fig2 produce verdicts and representatives *identical* to
their hand-built FPIR counterparts — serial and on a warm 4-worker
pool alike — and callables / spec strings work everywhere a suite name
did.
"""

import pytest

from repro.api import (
    Engine,
    EngineConfig,
    FormulaTarget,
    ProgramTarget,
    PythonTarget,
    Session,
    TargetError,
    coerce_target,
    parse_target_spec,
)
from repro.core.batch import BatchJob, job_request
from repro.fpir.program import Program
from repro.sat.formula import Formula

from examples.python_targets import fig2 as py_fig2, sum_of_sines

FILE_SPEC = "examples/python_targets.py::{name}"
MODULE_SPEC = "examples.python_targets:{name}"


class TestSpecParsing:
    def test_suite_name(self):
        target = parse_target_spec("fig2")
        assert isinstance(target, ProgramTarget)
        assert target.describe() == "fig2"

    def test_file_spec(self):
        target = parse_target_spec(FILE_SPEC.format(name="fig2"))
        assert isinstance(target, PythonTarget)
        assert target.path == "examples/python_targets.py"
        assert target.entry == "fig2"

    def test_module_spec(self):
        target = parse_target_spec(MODULE_SPEC.format(name="fig1a"))
        assert isinstance(target, PythonTarget)
        assert target.module == "examples.python_targets"

    def test_formula_kind_gets_constraint_text(self):
        target = parse_target_spec("x < 1 && x + 1 >= 2", kind="formula")
        assert isinstance(target, FormulaTarget)

    def test_formula_kind_rejects_python_specs(self):
        with pytest.raises(TargetError, match="constraint text"):
            parse_target_spec(FILE_SPEC.format(name="fig2"), kind="formula")

    def test_malformed_file_spec(self):
        with pytest.raises(TargetError, match="file.py::function"):
            parse_target_spec("examples/python_targets.py::")


class TestCoercion:
    def test_callable_coerces_to_python_target(self):
        target = coerce_target(py_fig2)
        assert isinstance(target, PythonTarget)
        assert isinstance(target.resolve(), Program)
        assert target.describe() == "fig2"

    def test_program_instance_coerces(self):
        from repro.programs import get_program

        program = get_program("fig2")
        target = coerce_target(program)
        assert target.resolve() is program

    def test_formula_instance_coerces(self):
        from repro.sat.parser import parse_formula

        formula = parse_formula("x == 3")
        target = coerce_target(formula, kind="formula")
        assert isinstance(target, FormulaTarget)
        assert isinstance(target.resolve(), Formula)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(TargetError, match="formula"):
            coerce_target(py_fig2, kind="formula")
        with pytest.raises(TargetError, match="program"):
            coerce_target(FormulaTarget(source="x == 3"), kind="program")

    def test_resolution_is_cached(self):
        target = PythonTarget(fn=py_fig2)
        assert target.resolve() is target.resolve()

    def test_file_spec_targets_are_memoized_by_mtime(self):
        spec = FILE_SPEC.format(name="fig2")
        first = parse_target_spec(spec)
        second = parse_target_spec(spec)
        assert first is second
        assert first.resolve() is second.resolve()

    def test_file_spec_memoization_invalidated_by_edit(self, tmp_path):
        """Editing the file (new mtime) re-lowers; same tick would not.

        The cache key is ``(abspath, entry, mtime)``: an edit that
        lands within the same mtime tick as the cached read replays
        the stale Program — callers rewriting files programmatically
        bump the mtime explicitly, exactly as this test does (see
        :func:`repro.api.targets.file_target`).
        """
        import os

        from repro.api import file_target

        source = tmp_path / "mut.py"
        source.write_text("def f(x):\n    return x + 1.0\n")
        spec = f"{source}::f"
        first = parse_target_spec(spec)
        assert parse_target_spec(spec) is first
        assert first is file_target(str(source), "f")
        first.resolve()  # lower now; resolution is lazy and cached

        source.write_text("def f(x):\n    return x * 3.0\n")
        # Force a new mtime even on filesystems whose timestamp
        # resolution is coarser than this test's two writes.
        stat = source.stat()
        os.utime(source, (stat.st_atime, stat.st_mtime + 1))

        second = parse_target_spec(spec)
        assert second is not first
        assert second.resolve() is not first.resolve()
        from repro.fpir.interpreter import run_program

        assert run_program(first.resolve(), [2.0]).value == 3.0
        assert run_program(second.resolve(), [2.0]).value == 6.0

    def test_module_spec_targets_are_memoized(self):
        spec = MODULE_SPEC.format(name="fig1b")
        first = parse_target_spec(spec)
        first.resolve()
        # The module is imported now, so repeated parses share the
        # same instance (and its lowered Program).
        second = parse_target_spec(spec)
        assert second.resolve() is first.resolve()

    def test_missing_file_spec_is_not_cached(self):
        spec = "examples/definitely_missing.py::f"
        target = parse_target_spec(spec)
        assert parse_target_spec(spec) is not target

    def test_check_fails_fast(self, tmp_path):
        from repro.fpir.frontend import FrontendError

        with pytest.raises(FrontendError, match="no Python file"):
            PythonTarget(path=str(tmp_path / "nope.py"), entry="f").check()
        with pytest.raises(TargetError, match="module"):
            PythonTarget(module="definitely.not.a.module", entry="f").check()
        # check() must not import the module (no side effects): an
        # importable module with a bad entry passes the check.
        PythonTarget(module="examples.python_targets", entry="nope").check()

    def test_unresolvable_module(self):
        target = PythonTarget(module="no.such.module", entry="f")
        with pytest.raises(TargetError, match="cannot import"):
            target.resolve()

    def test_unknown_suite_name_raises_on_resolve(self):
        with pytest.raises(KeyError, match="unknown program"):
            ProgramTarget(name="mystery").resolve()


def _fingerprint(report):
    """Verdict + representatives: what must match across target forms."""
    return (
        report.verdict,
        [(f.kind, f.label, f.x) for f in report.findings],
    )


#: (analysis, suite name, options) cases with a Python twin in
#: examples/python_targets.py — the acceptance-criteria matrix.
PARITY_CASES = [
    ("boundary", "fig1a", {"n_starts": 6, "max_samples": 6000}),
    ("boundary", "fig1b", {"n_starts": 6, "max_samples": 6000}),
    ("boundary", "fig2", {"n_starts": 6, "max_samples": 6000}),
    ("path", "fig2", {"n_starts": 6}),
    ("overflow", "fig2", {}),
    ("coverage", "fig2", {}),
]


class TestFrontendEngineParity:
    """Lowered targets answer exactly like the hand-built programs."""

    @pytest.mark.parametrize(
        "analysis,name,options",
        PARITY_CASES,
        ids=[f"{a}-{n}" for a, n, _ in PARITY_CASES],
    )
    def test_file_spec_matches_suite_serial(self, analysis, name, options):
        engine = Engine(EngineConfig(seed=11))
        hand = engine.run(analysis, name, **options)
        lowered = engine.run(analysis, FILE_SPEC.format(name=name), **options)
        assert _fingerprint(hand) == _fingerprint(lowered)
        assert hand.n_evals == lowered.n_evals
        assert hand.samples == lowered.samples

    @pytest.mark.parametrize("name", ["fig1a", "fig1b", "fig2"])
    def test_file_spec_matches_suite_warm_pool(self, name):
        options = {"n_starts": 6, "max_samples": 6000}
        serial = Engine(EngineConfig(seed=11)).run("boundary", name, **options)
        with Session(EngineConfig(seed=11, n_workers=4)) as session:
            pooled = session.run(
                "boundary", FILE_SPEC.format(name=name), **options
            )
        assert _fingerprint(serial) == _fingerprint(pooled)
        assert serial.samples == pooled.samples
        assert pooled.n_workers == 4

    def test_callable_and_module_spec_match_file_spec(self):
        options = {"n_starts": 5, "max_samples": 4000}
        engine = Engine(EngineConfig(seed=7))
        reports = [
            engine.run("boundary", form, **options)
            for form in (
                py_fig2,
                FILE_SPEC.format(name="fig2"),
                MODULE_SPEC.format(name="fig2"),
            )
        ]
        fingerprints = {repr(_fingerprint(r)) for r in reports}
        assert len(fingerprints) == 1


class TestSessionTargetIntake:
    def test_submit_accepts_callable(self):
        # Target intake, not search: the analysis's smoke budget will do.
        request = job_request(
            BatchJob("coverage", sum_of_sines, seed=5, params=(("smoke", True),))
        )
        with Session(EngineConfig(seed=5)) as session:
            handle = session.submit(
                request.analysis,
                request.target,
                config=request.config,
                **request.options,
            )
            report = handle.result()
        assert handle.target == "sum_of_sines"
        assert report.target == "sum_of_sines"

    def test_frontend_error_surfaces_through_job(self):
        def bad(x):
            return [x]

        with Session(EngineConfig(seed=5)) as session:
            handle = session.submit("coverage", bad)
            with pytest.raises(Exception, match="not supported"):
                handle.result()

    def test_unknown_program_name_still_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown program"):
            Engine().run("coverage", "no-such-program")


class TestTakesProgramShim:
    def test_takes_program_tracks_target_kind(self):
        from repro.api import get_analysis

        assert get_analysis("boundary").takes_program is True
        assert get_analysis("sat").takes_program is False
        assert get_analysis("sat").target_kind == "formula"

    def test_legacy_subclass_warns_and_maps(self):
        from repro.api.base import Analysis

        with pytest.warns(DeprecationWarning, match="takes_program"):

            class LegacyFormulaAnalysis(Analysis):
                name = "legacy-formula"
                takes_program = False

                def prepare(self, target, spec, options, config):
                    raise NotImplementedError

                def plan_round(self, state, round_index):
                    raise NotImplementedError

                def absorb(self, state, round_index, outcome):
                    raise NotImplementedError

                def finish(self, state):
                    raise NotImplementedError

        assert LegacyFormulaAnalysis.target_kind == "formula"


class TestRegisterProgramForce:
    def test_force_reregistration(self):
        from repro.programs import get_program
        from repro.programs.suite import register_program

        def make():
            from repro.programs import fig2

            return fig2.make_program()

        register_program("test-force-prog", make)
        with pytest.raises(ValueError, match="already registered"):
            register_program("test-force-prog", make)
        register_program("test-force-prog", make, force=True)
        assert get_program("test-force-prog").num_inputs == 1
        # Clean up so repeated in-process runs (and `repro list`
        # assertions) never see the probe program.
        from repro.programs.suite import _REGISTRY

        del _REGISTRY["test-force-prog"]


class TestCTargets:
    """``file.c::function`` specs: the cfront intake path."""

    C_SPEC = "examples/c/fig.c::fig2"

    def test_c_spec_parses_to_ctarget(self):
        from repro.api import CTarget

        target = parse_target_spec(self.C_SPEC)
        assert isinstance(target, CTarget)
        assert target.path == "examples/c/fig.c"
        assert target.entry == "fig2"
        assert target.describe() == self.C_SPEC

    def test_c_target_resolves_and_is_memoized(self):
        first = parse_target_spec(self.C_SPEC)
        second = parse_target_spec(self.C_SPEC)
        assert first is second
        assert isinstance(first.resolve(), Program)
        assert first.resolve() is second.resolve()

    def test_c_target_memoization_invalidated_by_edit(self, tmp_path):
        import os

        source = tmp_path / "mut.c"
        source.write_text("double f(double x) { return x + 1.0; }\n")
        spec = f"{source}::f"
        first = parse_target_spec(spec)
        assert parse_target_spec(spec) is first
        first.resolve()

        source.write_text("double f(double x) { return x * 3.0; }\n")
        stat = source.stat()
        os.utime(source, (stat.st_atime, stat.st_mtime + 1))

        second = parse_target_spec(spec)
        assert second is not first
        from repro.fpir.interpreter import run_program

        assert run_program(first.resolve(), [2.0]).value == 3.0
        assert run_program(second.resolve(), [2.0]).value == 6.0

    def test_check_fails_fast_with_located_diagnostics(self, tmp_path):
        from repro.api import CTarget
        from repro.cfront import CFrontendError

        with pytest.raises(CFrontendError, match="no C file"):
            CTarget(path=str(tmp_path / "nope.c"), entry="f").check()
        bad = tmp_path / "bad.c"
        bad.write_text("double f(double x) { goto out; }\n")
        with pytest.raises(CFrontendError, match="goto"):
            CTarget(path=str(bad), entry="f").check()

    def test_malformed_c_spec(self):
        with pytest.raises(TargetError, match="file.c::function"):
            parse_target_spec("examples/c/fig.c::")

    def test_formula_kind_rejects_c_specs(self):
        with pytest.raises(TargetError, match="constraint text"):
            parse_target_spec(self.C_SPEC, kind="formula")

    def test_engine_runs_c_spec(self):
        report = Engine(EngineConfig(seed=3)).run(
            "boundary", self.C_SPEC, n_starts=3, max_samples=3000
        )
        assert report.target == self.C_SPEC
        assert report.verdict == "found"
        assert report.findings
