"""Benchmarks for Instance 5 (the XSat-style ``sat`` analysis).

Not a paper table (the SAT evaluation lives in the XSat paper [16]),
but the paper's §1 claims hinge on these constraints being cheap for
weak-distance minimization and out of reach for naive baselines.
"""

from repro.api import Engine, EngineConfig
from repro.mo import uniform_sampler
from repro.sat import RandomSamplingSolver, parse_formula


def solve(formula, seed, n_starts=30, bound=10.0):
    """One ``sat`` run through the engine; returns its SatResult."""
    config = EngineConfig(
        seed=seed,
        n_starts=n_starts,
        start_sampler=uniform_sampler(-bound, bound),
    )
    return Engine(config).run("sat", formula).detail


def test_sat_fig1a_constraint(benchmark):
    formula = parse_formula("x < 1 && x + 1 >= 2")
    result = benchmark.pedantic(
        solve, args=(formula,), kwargs={"seed": 5},
        rounds=3, iterations=1,
    )
    assert result.is_sat
    assert result.model["x"] == 0.9999999999999999


def test_sat_tan_constraint(benchmark):
    formula = parse_formula("x < 1 && x + tan(x) >= 2")
    result = benchmark.pedantic(
        solve, args=(formula,), kwargs={"seed": 6},
        rounds=3, iterations=1,
    )
    assert result.is_sat


def test_sat_multivariable(benchmark):
    formula = parse_formula("a + b == 10 && a * b == 21")
    result = benchmark.pedantic(
        solve, args=(formula,),
        kwargs={"seed": 8, "n_starts": 40, "bound": 20.0},
        rounds=1, iterations=1,
    )
    assert result.is_sat


def test_random_baseline_on_fig1a(benchmark):
    # The contrast datapoint: 20k random samples, no model.
    formula = parse_formula("x < 1 && x + 1 >= 2")
    baseline = RandomSamplingSolver(
        n_samples=20_000, start_sampler=uniform_sampler(-10.0, 10.0)
    )
    result = benchmark.pedantic(
        baseline.solve, args=(formula,), kwargs={"seed": 5},
        rounds=1, iterations=1,
    )
    assert not result.is_sat
