"""Instance 1: boundary value analysis."""

import pytest

from repro.analyses.boundary import (
    characteristic_spec,
    hits_spec,
    multiplicative_spec,
)
from repro.api import Engine, EngineConfig
from repro.core.weak_distance import WeakDistance
from repro.fpir.instrument import instrument
from repro.mo.scipy_backends import BasinhoppingBackend
from repro.mo.starts import uniform_sampler
from repro.programs import fig2


def _boundary(program, seed, backend, **options):
    """The boundary analysis' detail report, through the engine."""
    engine = Engine(EngineConfig(seed=seed, backend=backend))
    return engine.run("boundary", program, **options).detail


@pytest.fixture(scope="module")
def fig2_report():
    return _boundary(
        fig2.make_program(),
        seed=1,
        backend=BasinhoppingBackend(niter=40),
        n_starts=8,
        start_sampler=uniform_sampler(-50.0, 50.0),
        max_samples=30_000,
    )


class TestFig2:
    def test_all_known_boundary_values_found(self, fig2_report):
        report = fig2_report
        found = {x[0] for x in report.boundary_values}
        assert set(fig2.KNOWN_BOUNDARY_VALUES) <= found

    def test_surprise_value_found(self, fig2_report):
        # The paper's 0.9999999999999999 (Table 1, Basinhopping row).
        report = fig2_report
        found = {x[0] for x in report.boundary_values}
        assert fig2.SURPRISE_BOUNDARY_VALUE in found

    def test_soundness_replay(self, fig2_report):
        report = fig2_report
        assert report.sound

    def test_every_bv_is_a_true_boundary(self, fig2_report):
        report = fig2_report
        for (x,) in report.boundary_values:
            assert fig2.reference_boundary_membership(x)

    def test_per_condition_stats(self, fig2_report):
        report = fig2_report
        assert report.conditions_triggered == 2
        stats = report.per_condition
        # c1 (x <= 1): boundary x == 1 only.
        assert stats["c1"].min_value == stats["c1"].max_value == (1.0,)
        # c2 (y <= 4): boundaries -3, ~1, 2.
        assert stats["c2"].min_value == (-3.0,)
        assert stats["c2"].max_value == (2.0,)

    def test_first_hit_ordering_is_plausible(self, fig2_report):
        report = fig2_report
        for label, n in report.first_hit_at.items():
            assert 1 <= n <= report.n_samples


class TestWeakDistanceShapes:
    def test_multiplicative_values(self):
        wd = WeakDistance(
            instrument(fig2.make_program(), multiplicative_spec())
        )
        assert wd((0.0,)) == abs(0.0 - 1.0) * abs(1.0 - 4.0)

    def test_characteristic_is_flat(self):
        wd = WeakDistance(
            instrument(fig2.make_program(), characteristic_spec())
        )
        assert wd((0.5,)) == 1.0
        assert wd((123.456,)) == 1.0
        assert wd((1.0,)) == 0.0  # still a valid weak distance

    def test_characteristic_degenerates_under_budget(self):
        # Limitation 3 / Fig. 7: with a small budget, the flat distance
        # finds (almost) nothing while the graded one finds everything.
        report = _boundary(
            fig2.make_program(),
            seed=3,
            backend=BasinhoppingBackend(niter=15),
            characteristic=True,
            n_starts=3,
            start_sampler=uniform_sampler(-50.0, 50.0),
            max_samples=3_000,
        )
        found = {x[0] for x in report.boundary_values}
        assert not set(fig2.KNOWN_BOUNDARY_VALUES) <= found

    def test_hits_spec_counts(self):
        wd = WeakDistance(instrument(fig2.make_program(), hits_spec()))
        _, counters = wd.replay((1.0,))
        hits = {label for (kind, label) in counters
                if kind == "boundary_hit"}
        # x == 1 triggers c1; then x' = 2, y = 4 triggers c2 too.
        assert hits == {"c1", "c2"}


class TestSiteFilter:
    def test_filter_restricts_instrumentation(self, sin_program):
        weak_distance = WeakDistance(
            instrument(
                sin_program,
                multiplicative_spec(
                    site_filter=lambda site: site.function == "sin_glibc"
                ),
            )
        )
        index = weak_distance.instrumented.index
        assert all(
            site.function == "sin_glibc"
            for label, site in ((s.label, s) for s in index.compares)
            if label in index.compare_labels
            and site.function == "sin_glibc"
        )
        # The weak distance ignores kernel-internal comparisons:
        # evaluating away from all k-bounds gives a positive product of
        # the five |k - c| factors only.
        value = weak_distance((0.5,))
        assert value > 0.0
