"""Formula translation + the XSat-style solver."""


import pytest
from hypothesis import given, strategies as st

from repro.api import Engine, EngineConfig
from repro.fpir.builder import call, fadd, fmul, num, v
from repro.fpir.compiler import compile_program
from repro.mo.starts import uniform_sampler
from repro.sat import (
    NAIVE,
    RandomSamplingSolver,
    SatVerdict,
    ULP,
    atom,
    conjunction,
    evaluate_formula,
    formula_to_branch_program,
    formula_to_distance_program,
)
from repro.sat.formula import Formula


def _solve(formula, seed, **options):
    """The sat analysis' detail report (a SatResult), via the engine."""
    return Engine(EngineConfig(seed=seed)).run("sat", formula, **options).detail


def _toy_formula() -> Formula:
    # (x < 1 | x > 5) & (x*x >= 4)
    return Formula(
        [
            [atom("lt", v("x"), num(1.0)), atom("gt", v("x"), num(5.0))],
            [atom("ge", fmul(v("x"), v("x")), num(4.0))],
        ]
    )


def _holds(x: float) -> bool:
    return (x < 1.0 or x > 5.0) and x * x >= 4.0


class TestBranchProgram:
    @given(st.floats(min_value=-20, max_value=20, allow_nan=False))
    def test_equivalent_to_direct_semantics(self, x):
        assert evaluate_formula(_toy_formula(), [x]) == _holds(x)

    def test_sat_global_set(self):
        program = formula_to_branch_program(_toy_formula())
        result = compile_program(program).run([-3.0])
        assert result.globals["sat"] == 1.0


class TestDistanceProgram:
    @pytest.mark.parametrize("metric", [NAIVE, ULP])
    @given(x=st.floats(min_value=-20, max_value=20, allow_nan=False))
    def test_zero_iff_model(self, metric, x):
        program = formula_to_distance_program(_toy_formula(), metric)
        value = compile_program(program).run([x]).value
        assert value >= 0.0
        assert (value == 0.0) == _holds(x)

    def test_r_sums_clause_minima(self):
        # At x = 1.5: clause1 min distance, clause2 distance.
        program = formula_to_distance_program(_toy_formula(), NAIVE)
        value = compile_program(program).run([1.5]).value
        # clause1: min(x-1 [lt false: 0.5+tiny], 5-x [gt false: 3.5+tiny])
        # clause2: 4 - x*x = 1.75
        assert value == pytest.approx(0.5 + 1.75, rel=1e-12)


class TestSolver:
    def test_fig1a_constraint_exact_model(self):
        f = conjunction(
            atom("lt", v("x"), num(1.0)),
            atom("ge", fadd(v("x"), num(1.0)), num(2.0)),
        )
        result = _solve(
            f, seed=5,
            n_starts=30, start_sampler=uniform_sampler(-10.0, 10.0),
        )
        assert result.is_sat
        assert result.model["x"] == 0.9999999999999999

    def test_tan_constraint(self):
        f = conjunction(
            atom("lt", v("x"), num(1.0)),
            atom("ge", fadd(v("x"), call("tan", v("x"))), num(2.0)),
        )
        result = _solve(
            f, seed=6,
            n_starts=30, start_sampler=uniform_sampler(-10.0, 10.0),
        )
        assert result.is_sat
        assert evaluate_formula(f, [result.model["x"]])

    def test_unsat_reports_unknown(self):
        f = conjunction(
            atom("gt", v("x"), num(1.0)), atom("lt", v("x"), num(0.0))
        )
        result = _solve(
            f, seed=7,
            n_starts=5, start_sampler=uniform_sampler(-10.0, 10.0),
        )
        assert result.verdict is SatVerdict.UNKNOWN
        assert result.model is None
        assert result.r_star > 0.0

    def test_multivariable(self):
        # x + y == 10 & x*y == 21  (e.g. {3, 7})
        f = conjunction(
            atom("eq", fadd(v("x"), v("y")), num(10.0)),
            atom("eq", fmul(v("x"), v("y")), num(21.0)),
        )
        result = _solve(
            f, seed=8,
            n_starts=40, start_sampler=uniform_sampler(-20.0, 20.0),
        )
        assert result.is_sat
        x, y = result.model["x"], result.model["y"]
        assert x + y == 10.0 and x * y == 21.0

    def test_disjunction_choice(self):
        f = Formula(
            [[atom("eq", v("x"), num(3.0)),
              atom("eq", v("x"), num(-3.0))]]
        )
        result = _solve(
            f, seed=9,
            n_starts=10, start_sampler=uniform_sampler(-10.0, 10.0),
        )
        assert result.is_sat
        assert result.model["x"] in (3.0, -3.0)

    def test_random_baseline_misses_needle(self):
        # The Fig. 1a model is a single double: random sampling in a
        # 20-wide interval has ~0 probability of hitting it.
        f = conjunction(
            atom("lt", v("x"), num(1.0)),
            atom("ge", fadd(v("x"), num(1.0)), num(2.0)),
        )
        baseline = RandomSamplingSolver(
            n_samples=5_000, start_sampler=uniform_sampler(-10.0, 10.0)
        )
        result = baseline.solve(f, seed=10)
        assert result.verdict is SatVerdict.UNKNOWN

    def test_random_baseline_finds_wide_targets(self):
        f = conjunction(atom("gt", v("x"), num(0.0)))
        baseline = RandomSamplingSolver(
            n_samples=1_000, start_sampler=uniform_sampler(-10.0, 10.0)
        )
        result = baseline.solve(f, seed=11)
        assert result.is_sat
