import numpy as np
import pytest

from calparity.cost import CostPair, CostSpec
from calparity.dataset import GroupData
from calparity.impossibility import (
    ImpossibilityBound,
    approximate_bound,
    build_matrix,
    exact_impossibility_check,
)
from calparity.metrics import rate_point

EXACT = 1e-12

FP_PAIR = CostPair(CostSpec(1.0, 0.0), CostSpec(1.0, 0.0))
FN_PAIR = CostPair(CostSpec(0.0, 1.0), CostSpec(0.0, 1.0))


def perfect_group(gid, n_pos, n_neg) -> GroupData:
    scores = np.r_[np.ones(n_pos), np.zeros(n_neg)]
    labels = np.r_[np.ones(n_pos, dtype=int), np.zeros(n_neg, dtype=int)]
    return GroupData(gid, scores, labels)


def trivial_group(gid, mu, n) -> GroupData:
    n_pos = int(round(mu * n))
    labels = np.r_[np.ones(n_pos, dtype=int), np.zeros(n - n_pos, dtype=int)]
    return GroupData(gid, np.full(n, n_pos / n), labels)


class TestBuildMatrix:
    def test_balanced_rows(self):
        matrix = build_matrix(0.5, 0.5, FP_PAIR, FN_PAIR)
        expected = np.array(
            [
                [1.0, -1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, -1.0],
                [1.0, 0.0, -1.0, 0.0],
                [0.0, 1.0, 0.0, -1.0],
            ]
        )
        assert np.array_equal(matrix.rows, expected)
        assert matrix.distinct

    def test_quarter_base_rate_row(self):
        matrix = build_matrix(0.25, 0.5, FP_PAIR, FN_PAIR)
        assert matrix.rows[0] == pytest.approx([1.0, -1.0 / 3.0, 0.0, 0.0], abs=1e-15)

    def test_identical_pairs_are_not_distinct(self):
        matrix = build_matrix(0.25, 0.5, FP_PAIR, FP_PAIR)
        assert not matrix.distinct

    def test_scaled_pairs_are_not_distinct(self):
        scaled = CostPair(CostSpec(2.0, 0.0), CostSpec(2.0, 0.0))
        assert not build_matrix(0.25, 0.5, FP_PAIR, scaled).distinct

    @pytest.mark.parametrize("mu1,mu2", [(0.0, 0.5), (0.5, 1.0)])
    def test_rejects_degenerate_base_rates(self, mu1, mu2):
        with pytest.raises(ValueError):
            build_matrix(mu1, mu2, FP_PAIR, FN_PAIR)

    def test_calibration_rows_annihilate_calibrated_rates(self, rng):
        # Exact calibrated rate vectors satisfy fn = (1-mu)/mu * fp, so the
        # calibration rows evaluate to zero.
        for _ in range(50):
            mu1, mu2 = rng.uniform(0.05, 0.95, size=2)
            matrix = build_matrix(mu1, mu2, FP_PAIR, FN_PAIR)
            t1, t2 = rng.uniform(0.0, 1.0, size=2)
            q = np.array(
                [t1 * mu1, t1 * (1 - mu1), t2 * mu2, t2 * (1 - mu2)]
            )
            residual = matrix.rows[:2] @ q
            assert np.max(np.abs(residual)) <= EXACT


class TestExactCheck:
    def test_perfect_classifiers_satisfy_everything(self):
        g1 = perfect_group("A", 1, 2)
        g2 = perfect_group("B", 1, 1)
        matrix = build_matrix(g1.base_rate, g2.base_rate, FP_PAIR, FN_PAIR)
        check = exact_impossibility_check(matrix, rate_point(g1), rate_point(g2), tol=1e-9)
        assert check.satisfied
        assert max(abs(r) for r in check.residuals) == 0.0
        assert rate_point(g1) == rate_point(g2)

    def test_trivial_classifiers_violate(self):
        g1 = trivial_group("A", 0.25, 8)
        g2 = trivial_group("B", 0.5, 8)
        matrix = build_matrix(g1.base_rate, g2.base_rate, FP_PAIR, FN_PAIR)
        check = exact_impossibility_check(matrix, rate_point(g1), rate_point(g2), tol=1e-3)
        assert not check.satisfied
        # Calibration rows vanish for trivial classifiers; the cost rows
        # carry the full base-rate mismatch.
        assert abs(check.residuals[0]) <= EXACT
        assert abs(check.residuals[1]) <= EXACT
        assert abs(check.residuals[2]) == pytest.approx(0.25, abs=EXACT)

    def test_near_perfect_classifiers_satisfy_at_matching_tol(self, rng):
        eps = 1e-3
        scores1 = np.r_[np.full(20, 1.0 - eps), np.full(40, eps)]
        labels1 = np.r_[np.ones(20, dtype=int), np.zeros(40, dtype=int)]
        scores2 = np.r_[np.full(30, 1.0 - eps), np.full(30, eps)]
        labels2 = np.r_[np.ones(30, dtype=int), np.zeros(30, dtype=int)]
        g1 = GroupData("A", scores1, labels1)
        g2 = GroupData("B", scores2, labels2)
        matrix = build_matrix(g1.base_rate, g2.base_rate, FP_PAIR, FN_PAIR)
        check = exact_impossibility_check(matrix, rate_point(g1), rate_point(g2), tol=10 * eps)
        assert check.satisfied

    def test_non_distinct_pairs_rejected(self):
        g1 = perfect_group("A", 1, 2)
        g2 = perfect_group("B", 1, 1)
        matrix = build_matrix(g1.base_rate, g2.base_rate, FP_PAIR, FP_PAIR)
        with pytest.raises(ValueError, match="distinct"):
            exact_impossibility_check(matrix, rate_point(g1), rate_point(g2), tol=1e-9)


class TestApproximateBound:
    def test_small_system_constant(self):
        matrix = build_matrix(1 / 3, 0.5, FP_PAIR, FN_PAIR)
        bound = approximate_bound(matrix, 0.0, 0.0, M=1.0, D=2)
        assert bound.L == 256.0
        assert bound.rate_bound == 0.0

    def test_slack_scales_the_bound(self):
        matrix = build_matrix(1 / 3, 0.5, FP_PAIR, FN_PAIR)
        bound = approximate_bound(matrix, 0.01, 0.001, M=1.0, D=2)
        # max{2*0.01/(2/3), 2*0.01/0.5, 0.001} = 0.04.
        assert bound.rate_bound == pytest.approx(256.0 * 0.04, abs=EXACT)

    def test_rejects_bad_inputs(self):
        matrix = build_matrix(1 / 3, 0.5, FP_PAIR, FN_PAIR)
        with pytest.raises(ValueError):
            approximate_bound(matrix, 0.0, 0.0, M=1.0, D=0)
        with pytest.raises(ValueError):
            approximate_bound(matrix, -0.1, 0.0, M=1.0, D=2)
        with pytest.raises(ValueError):
            approximate_bound(matrix, 0.0, 0.0, M=0.0, D=2)
        for M, D in ((5e102, 12), (1e103, 12), (2.0, 10**80)):
            with pytest.raises(ValueError, match="not finite"):
                approximate_bound(matrix, 0.0, 0.0, M=M, D=D)
        non_distinct = build_matrix(1 / 3, 0.5, FP_PAIR, FP_PAIR)
        with pytest.raises(ValueError, match="distinct"):
            approximate_bound(non_distinct, 0.0, 0.0, M=1.0, D=2)

    def test_bound_object_validates_constant(self):
        with pytest.raises(ValueError):
            ImpossibilityBound(M=1.0, D=2, L=100.0, delta_cal=0.0, delta_cost=0.0, rate_bound=0.0)

    def test_engineered_instances_respect_the_bound(self, rng):
        # Near-perfect classifiers with exact rational base rates 1/3 and
        # 1/2: measure the actual calibration gaps and cost differences,
        # then check all four rates against the implied bound.
        from calparity.metrics import calibration_gap

        for _ in range(25):
            eps1, eps2 = rng.uniform(0.0, 0.05, size=2)
            g1 = GroupData(
                "A",
                np.r_[np.full(11, 1.0 - eps1), np.full(22, eps1)],
                np.r_[np.ones(11, dtype=int), np.zeros(22, dtype=int)],
            )
            g2 = GroupData(
                "B",
                np.r_[np.full(16, 1.0 - eps2), np.full(16, eps2)],
                np.r_[np.ones(16, dtype=int), np.zeros(16, dtype=int)],
            )
            matrix = build_matrix(g1.base_rate, g2.base_rate, FP_PAIR, FN_PAIR)
            p1, p2 = rate_point(g1), rate_point(g2)
            delta_cal = max(calibration_gap(g1).gap, calibration_gap(g2).gap)
            delta_cost = max(abs(p1.c_fp - p2.c_fp), abs(p1.c_fn - p2.c_fn))
            bound = approximate_bound(matrix, delta_cal, delta_cost, M=1.0, D=2)
            rates = [p1.c_fp, p1.c_fn, p2.c_fp, p2.c_fn]
            assert max(rates) <= bound.rate_bound + EXACT
