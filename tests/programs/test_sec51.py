"""Cross-function instrumentation (the §5.1 Client requirement)."""

import pytest

from repro.api import Engine, EngineConfig
from repro.fpir import run_program, validate
from repro.mo.scipy_backends import BasinhoppingBackend
from repro.mo.starts import uniform_sampler
from repro.programs import sec51


class TestProgram:
    def test_validates(self):
        assert validate(sec51.make_program()) == []

    def test_semantics(self):
        prog = sec51.make_program()
        # g(x) <= h(x) iff x^2 - 2x - 3 <= 0 iff -1 <= x <= 3.
        assert run_program(prog, [0.0]).value == 1.0
        assert run_program(prog, [3.0]).value == 1.0
        assert run_program(prog, [4.0]).value == 0.0
        assert run_program(prog, [-2.0]).value == 0.0


class TestCrossFunctionBoundaries:
    @pytest.fixture(scope="class")
    def report(self):
        engine = Engine(
            EngineConfig(seed=51, backend=BasinhoppingBackend(niter=40))
        )
        return engine.run(
            "boundary",
            sec51.make_program(),
            n_starts=10,
            start_sampler=uniform_sampler(-20.0, 20.0),
            max_samples=40_000,
        ).detail

    def test_entry_boundaries_found(self, report):
        found = {x[0] for x in report.boundary_values}
        assert set(sec51.ENTRY_BOUNDARY_VALUES) <= found

    def test_inner_function_boundary_found(self, report):
        # The x == 0 boundary lives inside g; finding it proves the
        # instrumenter reached callee comparison sites.
        found = {x[0] for x in report.boundary_values}
        assert sec51.INNER_BOUNDARY_VALUE in found

    def test_sound(self, report):
        assert report.sound

    def test_both_sites_triggered(self, report):
        # One site in the entry, one inside g: cross-function reach.
        assert report.conditions_triggered == 2
