"""The racing PortfolioBackend."""

import pickle

import pytest

from repro.mo import (
    Objective,
    PortfolioBackend,
    available_backends,
    make_backend,
)
from repro.mo.base import MOBackend
from repro.mo.population import PopulationBackend
from repro.mo.random_search import RandomSearchBackend
from repro.mo.scipy_backends import BasinhoppingBackend
from repro.mo.starts import uniform_sampler
from repro.util.rng import make_rng


class ProbeBackend(MOBackend):
    """Asks a fixed list of points, one per step; records that it ran."""

    def __init__(self, name, points):
        self.name = name
        self.points = points
        self.runs = 0

    def steps(self, start, rng):
        self.runs += 1
        for point in self.points:
            yield [point]


def _abs_objective(**kwargs):
    return Objective(lambda x: abs(x[0]), n_dims=1, **kwargs)


class TestRacing:
    def test_first_zero_wins_and_stops_the_race(self):
        finder = ProbeBackend("finder", [(3.0,), (0.0,)])
        never_runs = ProbeBackend("idle", [(1.0,)])
        portfolio = PortfolioBackend(members=[finder, never_runs])
        result = portfolio.minimize(
            _abs_objective(), (5.0,), make_rng(0)
        )
        assert result.stopped_at_zero
        assert result.f_star == 0.0
        assert result.backend == "portfolio[finder]"
        assert never_runs.runs == 0

    def test_best_minimum_across_members_when_no_zero(self):
        coarse = ProbeBackend("coarse", [(3.0,)])
        fine = ProbeBackend("fine", [(1.0,)])
        portfolio = PortfolioBackend(members=[coarse, fine])
        result = portfolio.minimize(
            _abs_objective(), (5.0,), make_rng(0)
        )
        assert result.f_star == 1.0
        assert result.backend == "portfolio[fine]"
        assert coarse.runs == fine.runs == 1

    def test_tie_prefers_the_earlier_member(self):
        first = ProbeBackend("first", [(1.0,)])
        second = ProbeBackend("second", [(-1.0,)])
        portfolio = PortfolioBackend(members=[first, second])
        result = portfolio.minimize(
            _abs_objective(), (5.0,), make_rng(0)
        )
        assert result.f_star == 1.0
        assert result.backend == "portfolio[first]"

    def test_per_member_budget_is_enforced(self):
        greedy = RandomSearchBackend(
            n_samples=10**6, sampler=uniform_sampler(1.0, 2.0)
        )
        portfolio = PortfolioBackend(
            members=[greedy, greedy], evals_per_member=50
        )
        objective = _abs_objective()
        portfolio.minimize(objective, (5.0,), make_rng(0))
        assert objective.n_evals <= 100
        # The budget save/restore leaves the objective untouched.
        assert objective.max_samples is None

    def test_overall_budget_stops_between_members(self):
        greedy = RandomSearchBackend(
            n_samples=10**6, sampler=uniform_sampler(1.0, 2.0)
        )
        portfolio = PortfolioBackend(
            members=[greedy, greedy, greedy], evals_per_member=40
        )
        objective = _abs_objective(max_samples=50)
        portfolio.minimize(objective, (5.0,), make_rng(0))
        assert objective.n_evals <= 50
        assert objective.max_samples == 50


class TestConstructionAndRegistry:
    def test_registered_by_name(self):
        assert "portfolio" in available_backends()
        backend = make_backend("portfolio")
        assert isinstance(backend, PortfolioBackend)
        assert [m.name for m in backend.members] == [
            "basinhopping",
            "population",
            "random-search",
        ]

    def test_members_resolve_registry_names(self):
        backend = PortfolioBackend(members=["random-search"])
        assert isinstance(backend.members[0], RandomSearchBackend)

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValueError):
            PortfolioBackend(members=[])

    def test_picklable_for_the_parallel_driver(self):
        backend = PortfolioBackend(
            members=[
                BasinhoppingBackend(niter=3),
                PopulationBackend(n_generations=5),
                RandomSearchBackend(n_samples=10),
            ],
            evals_per_member=20,
        )
        clone = pickle.loads(pickle.dumps(backend))
        assert [m.name for m in clone.members] == [
            "basinhopping",
            "population",
            "random-search",
        ]
        assert clone.evals_per_member == 20


class TestDeterminism:
    def test_same_seed_same_result(self):
        def run():
            portfolio = PortfolioBackend(
                members=[
                    BasinhoppingBackend(niter=4, local_maxiter=10),
                    PopulationBackend(n_generations=5, population=8),
                    RandomSearchBackend(
                        n_samples=100, sampler=uniform_sampler(-10, 10)
                    ),
                ],
                evals_per_member=200,
            )
            objective = Objective(
                lambda x: (x[0] - 3.0) ** 2 + 1.0, n_dims=1
            )
            return portfolio.minimize(objective, (8.0,), make_rng(42))

        a, b = run(), run()
        assert a.x_star == b.x_star
        assert a.f_star == b.f_star
        assert a.n_evals == b.n_evals
