"""The experiment harness, in quick mode.

These are shape tests: each experiment must regenerate the *qualitative*
content of its paper artefact under a CI-sized budget.
"""

import pytest

from repro.experiments import ALL
from repro.experiments import (
    ablation,
    fig3,
    fig4,
    fig9_table2,
    table1,
    table3,
    table4,
    table5,
)

# End-to-end benchmark replicas: minutes-scale in aggregate, excluded
# from the CI tier-1 run (`pytest -m "not slow"`).
pytestmark = pytest.mark.slow

SEED = 20190622


@pytest.fixture(scope="module")
def fig3_result():
    return fig3.run(quick=True, seed=SEED)


@pytest.fixture(scope="module")
def table3_result():
    return table3.run(quick=True, seed=SEED)


class TestFig3:
    def test_all_known_boundary_values_found(self, fig3_result):
        assert fig3_result.data["all_known_found"]

    def test_graph_is_nonnegative_with_zeros(self, fig3_result):
        values = [w for _x, w in fig3_result.data["graph"]]
        assert all(w >= 0.0 for w in values)

    def test_report_is_sound(self, fig3_result):
        assert fig3_result.data["report"].sound

    def test_renders_as_text(self, fig3_result):
        text = fig3_result.to_text()
        assert "fig3" in text and "boundary" in text.lower()


class TestFig4:
    def test_witness_found_and_verified(self):
        result = fig4.run(quick=True, seed=SEED)
        assert result.data["result"].verified
        x = result.data["result"].x_star[0]
        assert -3.0 <= x <= 1.0


class TestTable1:
    def test_basinhopping_finds_all_four(self):
        result = table1.run(quick=True, seed=SEED)
        bvs = result.data["basinhopping"]["boundary_values"]
        assert set(bvs) >= {-3.0, 0.9999999999999999, 1.0, 2.0}

    def test_all_backends_solve_path(self):
        result = table1.run(quick=True, seed=SEED)
        for name in ("basinhopping", "differential_evolution",
                     "powell"):
            assert result.data[name]["path"].verified, name


class TestFig9Table2:
    def test_majority_of_reachable_conditions_triggered(self):
        result = fig9_table2.run(quick=True, seed=SEED)
        # 8 signed reachable conditions; quick budget must get most.
        assert result.data["signed_conditions_triggered"] >= 5
        assert result.data["sound"]

    def test_unreachable_condition_untouched(self):
        result = fig9_table2.run(quick=True, seed=SEED)
        c5_rows = [r for r in result.rows if r[0] == "c5"]
        assert all(row[5] == 0 for row in c5_rows)


class TestTable3:
    def test_three_benchmarks(self, table3_result):
        assert [row[0] for row in table3_result.rows] == [
            "bessel", "hyperg", "airy"
        ]

    def test_op_counts(self, table3_result):
        by_name = {row[0]: row for row in table3_result.rows}
        assert by_name["bessel"][2] == 23
        assert by_name["hyperg"][2] == 8

    def test_overflows_found_everywhere(self, table3_result):
        for row in table3_result.rows:
            assert row[3] > 0, f"no overflow found in {row[0]}"

    def test_airy_has_two_bugs(self, table3_result):
        by_name = {row[0]: row for row in table3_result.rows}
        assert by_name["airy"][5] == 2  # |B| == 2 (paper)

    def test_bessel_hyperg_bug_free(self, table3_result):
        by_name = {row[0]: row for row in table3_result.rows}
        assert by_name["bessel"][5] == 0
        assert by_name["hyperg"][5] == 0


class TestTable4:
    def test_majority_triggered_and_constant_missed(self):
        result = table4.run(quick=True, seed=SEED)
        assert result.data["n_ops"] == 23
        assert result.data["n_found"] >= 14
        missed_labels = {
            row[0] for row in result.rows if row[2] == "missed"
        }
        assert set(result.data["constant_op_labels"]) <= missed_labels


class TestTable5:
    def test_airy_rows_contain_both_bugs(self):
        result = table5.run(quick=True, seed=SEED)
        airy_causes = {
            row[5] for row in result.rows if row[0] == "airy"
        }
        assert "division by zero" in airy_causes
        assert "Inaccurate cosine" in airy_causes

    def test_every_row_has_success_status(self):
        result = table5.run(quick=True, seed=SEED)
        assert all(row[2] == 0 for row in result.rows)


class TestAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablation.run(quick=True, seed=SEED)

    def test_graded_beats_characteristic(self, result):
        assert len(result.data["graded"]) > len(result.data["flat"])

    def test_limitation2_guard(self, result):
        lim2 = result.data["limitation2"]
        # The flawed w += x*x designer reaches a zero of W at a nonzero
        # point, which the membership re-check rejects; the ULP
        # designer's zero is the one member of S.
        naive = lim2["naive"]
        assert naive.verdict == "partial"
        (x,) = naive.representatives
        assert x[0] != 0.0
        ulp = lim2["ulp"]
        assert ulp.verdict == "found"
        assert ulp.representatives == [(0.0,)]

    def test_compiler_faster_than_interpreter(self, result):
        speeds = result.data["throughput"]
        assert speeds["compiled"] > speeds["interpreter"]

    def test_weak_distance_coverage_beats_random(self, result):
        coverage = result.data["coverage_vs_random"]
        assert (
            coverage["weak-distance"].coverage
            > coverage["random"].coverage
        )


class TestHarness:
    def test_registry_complete(self):
        assert set(ALL) == {
            "fig3", "fig4", "table1", "fig9_table2",
            "table3", "table4", "table5", "ablation",
        }
