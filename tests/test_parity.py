import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from calparity import writer
from calparity.dataset import GroupData
from calparity.metrics import RatePoint, calibration_gap, rate_point
from calparity.cost import CostSpec, cost, trivial_cost
from calparity.parity import (
    MODE_MONTE_CARLO,
    AlreadyTrivialError,
    InfeasibleError,
    InterpolationPlan,
    compute_alpha,
    feasibility,
    mixture_calibration_gap,
    mixture_cost,
    mixture_rate_point,
    optimality_audit,
    realize_mixture,
)
from conftest import calibrated_distribution, distribution_rates, make_group, random_group
from oracles import mixture_whole

EXACT = 1e-12


class TestFeasibility:
    def test_ordered_triple_is_feasible(self):
        v = feasibility(0.4, 0.2, 0.6)
        assert v.feasible and v.reason == "ok"

    def test_cost_above_trivial(self):
        v = feasibility(0.7, 0.2, 0.6)
        assert not v.feasible and v.reason == "exceeds_trivial"

    def test_role_order_violation(self):
        v = feasibility(0.1, 0.2, 0.6)
        assert not v.feasible and v.reason == "cost_order_violated"

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            feasibility(-0.1, 0.2, 0.6)

    @given(
        st.floats(0.0, 2.0, allow_nan=False),
        st.floats(0.0, 2.0, allow_nan=False),
        st.floats(0.0, 2.0, allow_nan=False),
    )
    def test_verdict_matches_inequalities(self, g1, g2, triv):
        v = feasibility(g1, g2, triv)
        assert v.feasible == (g2 <= g1 <= triv)


class TestComputeAlpha:
    def test_midpoint(self):
        assert compute_alpha(0.4, 0.2, 0.6) == pytest.approx(0.5, abs=EXACT)

    def test_equal_costs_need_no_withholding(self):
        assert compute_alpha(0.2, 0.2, 0.6) == 0.0

    def test_full_withholding_at_the_trivial_ceiling(self):
        assert compute_alpha(0.6, 0.2, 0.6) == 1.0

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError) as err:
            compute_alpha(0.7, 0.2, 0.6)
        assert err.value.verdict.reason == "exceeds_trivial"

    def test_degenerate_denominator(self):
        with pytest.raises(AlreadyTrivialError):
            compute_alpha(0.6, 0.6, 0.6)

    def test_interpolated_cost_recovers_target_on_a_grid(self):
        # The defining contract: mixing at alpha reproduces g1's cost.
        for triv in np.linspace(0.2, 1.0, 5):
            for g2 in np.linspace(0.0, triv - 0.05, 5):
                for g1 in np.linspace(g2, triv, 7):
                    alpha = compute_alpha(g1, g2, triv)
                    assert (1 - alpha) * g2 + alpha * triv == pytest.approx(g1, abs=EXACT)


class TestInterpolationPlan:
    def test_monte_carlo_needs_seed(self):
        with pytest.raises(ValueError, match="seed"):
            InterpolationPlan(0.5, 0.3, MODE_MONTE_CARLO)

    @pytest.mark.parametrize("alpha,trivial", [(-0.1, 0.5), (1.1, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_rejects_out_of_range(self, alpha, trivial):
        with pytest.raises(ValueError):
            InterpolationPlan(alpha, trivial)


class TestMonteCarloApplication:
    def base_group(self, n=8) -> GroupData:
        rng = np.random.default_rng(5)
        scores = rng.uniform(0.05, 0.95, size=n)
        labels = np.r_[np.ones(n // 2, dtype=int), np.zeros(n - n // 2, dtype=int)]
        return GroupData("g", scores, labels)

    def test_alpha_zero_is_identity(self):
        g = self.base_group()
        out = realize_mixture(g, InterpolationPlan(0.0, 0.4, MODE_MONTE_CARLO, seed=1)).realized
        assert np.array_equal(out.scores, g.scores)
        assert np.array_equal(out.labels, g.labels)

    def test_alpha_one_withholds_everything(self):
        g = self.base_group()
        out = realize_mixture(g, InterpolationPlan(1.0, 0.4, MODE_MONTE_CARLO, seed=1)).realized
        assert np.all(out.scores == 0.4)

    def test_withheld_fraction_concentrates(self):
        n = 100_000
        rng = np.random.default_rng(9)
        g = GroupData(
            "g",
            rng.uniform(0.0, 1.0, size=n),
            rng.integers(0, 2, size=n),
        )
        mixture = realize_mixture(g, InterpolationPlan(0.5, 0.4, MODE_MONTE_CARLO, seed=3))
        assert abs(mixture.withheld.mean() - 0.5) <= 0.01

    def test_identical_seeds_identical_masks(self):
        g = self.base_group(100)
        plan = InterpolationPlan(0.3, 0.4, MODE_MONTE_CARLO, seed=77)
        a = realize_mixture(g, plan)
        b = realize_mixture(g, plan)
        assert np.array_equal(a.withheld, b.withheld)
        assert np.array_equal(a.realized.scores, b.realized.scores)

    def test_realized_invariants(self):
        g = self.base_group(200)
        plan = InterpolationPlan(0.6, 0.4, MODE_MONTE_CARLO, seed=11)
        mixture = realize_mixture(g, plan)
        assert not mixture.realized.labels.flags.writeable
        changed = mixture.realized.scores != g.scores
        assert np.all(mixture.realized.scores[changed] == 0.4)
        assert np.all(changed <= mixture.withheld)

    @pytest.mark.parametrize("alpha", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize(
        "n, chunk", [(2, None), (5, 1), (65535, None), (65536, None), (65537, None), (2 * 65536 + 3, None)]
    )
    def test_matches_whole_array_draw(self, monkeypatch, n, chunk, alpha):
        if chunk is not None:
            monkeypatch.setattr(writer, "_WRITE_CHUNK", chunk)
        g = GroupData("g", np.linspace(0.0, 1.0, n), np.arange(n) % 2)
        plan = InterpolationPlan(alpha, 0.4, MODE_MONTE_CARLO, seed=n)
        mixture = realize_mixture(g, plan)
        scores, withheld = mixture_whole(g, plan)
        assert mixture.realized.scores.tobytes() == scores.tobytes()
        assert mixture.withheld.tobytes() == withheld.tobytes()
        assert mixture.realized.labels.tobytes() == g.labels.tobytes()

    def test_requires_monte_carlo_mode(self):
        g = self.base_group()
        with pytest.raises(ValueError, match="monte_carlo"):
            realize_mixture(g, InterpolationPlan(0.5, 0.4)).realized


def materialize_mixture(g: GroupData, alpha_num: int, alpha_den: int, trivial: float) -> GroupData:
    """Exact finite realization of the mixture distribution.

    Duplicates every sample alpha_den times, replacing the score with the
    trivial output in alpha_num of the copies. The empirical distribution
    equals the analytic mixture at alpha = alpha_num / alpha_den.
    """
    keep = alpha_den - alpha_num
    scores = np.concatenate(
        [np.tile(g.scores, keep), np.full(len(g) * alpha_num, trivial)]
    )
    labels = np.concatenate([np.tile(g.labels, keep), np.tile(g.labels, alpha_num)])
    return GroupData(g.group_id, scores, labels)


class TestMixtureAnalytics:
    def test_rate_point_alpha_zero(self, rng):
        g = random_group(rng)
        plan = InterpolationPlan(0.0, g.base_rate)
        assert mixture_rate_point(g, plan) == rate_point(g)

    def test_rate_point_alpha_one(self, rng):
        g = random_group(rng)
        plan = InterpolationPlan(1.0, g.base_rate)
        p = mixture_rate_point(g, plan)
        assert p.c_fp == g.base_rate
        assert p.c_fn == pytest.approx(1.0 - g.base_rate, abs=EXACT)

    def test_componentwise_interpolation(self):
        # Rates (0.1, 0.2) mixed halfway toward (0.4, 0.6).
        g = make_group([0.1, 0.1, 0.8, 0.8], [0, 0, 1, 1])
        plan = InterpolationPlan(0.5, 0.4)
        p = mixture_rate_point(g, plan)
        assert p.c_fp == pytest.approx(0.25, abs=EXACT)
        assert p.c_fn == pytest.approx(0.4, abs=EXACT)

    def test_cost_matches_reference_group(self):
        # g2 has cost 0.2 under the pure-FP spec, trivial cost 0.6, and the
        # reference cost 0.4 sits exactly halfway.
        spec = CostSpec(1.0, 0.0)
        g2 = make_group(
            [0.2, 0.2, 0.2, 0.2, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8],
            [0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
        )
        assert cost(rate_point(g2), spec) == pytest.approx(0.2, abs=EXACT)
        assert trivial_cost(g2.base_rate, spec) == pytest.approx(0.6, abs=EXACT)
        alpha = compute_alpha(0.4, 0.2, 0.6)
        plan = InterpolationPlan(alpha, g2.base_rate)
        assert mixture_cost(g2, plan, spec) == pytest.approx(0.4, abs=EXACT)

    def test_cost_interpolates_linearly(self, rng):
        for _ in range(50):
            g = random_group(rng)
            spec = CostSpec(rng.uniform(0, 5), rng.uniform(0.1, 5))
            alpha = float(rng.uniform(0, 1))
            plan = InterpolationPlan(alpha, g.base_rate)
            base = cost(rate_point(g), spec)
            ceiling = trivial_cost(g.base_rate, spec)
            expected = (1 - alpha) * base + alpha * ceiling
            assert mixture_cost(g, plan, spec) == pytest.approx(expected, abs=EXACT)

    def test_matches_materialized_mixture(self, rng):
        for num, den in ((1, 2), (1, 4), (3, 4)):
            g = random_group(rng)
            alpha = num / den
            plan = InterpolationPlan(alpha, g.base_rate)
            concrete = materialize_mixture(g, num, den, g.base_rate)
            expected = rate_point(concrete)
            got = mixture_rate_point(g, plan)
            assert got.c_fp == pytest.approx(expected.c_fp, abs=EXACT)
            assert got.c_fn == pytest.approx(expected.c_fn, abs=EXACT)

    def test_monte_carlo_converges_to_analytic(self):
        n = 100_000
        rng = np.random.default_rng(31)
        scores = rng.choice(np.linspace(0.1, 0.9, 9), size=n)
        labels = (rng.random(n) < scores).astype(int)
        g = GroupData("g", scores, labels)
        plan = InterpolationPlan(0.4, g.base_rate, MODE_MONTE_CARLO, seed=8)
        realized = realize_mixture(g, plan).realized
        expected = mixture_rate_point(g, plan)
        got = rate_point(realized)
        assert abs(got.c_fp - expected.c_fp) <= 4 / np.sqrt(n)
        assert abs(got.c_fn - expected.c_fn) <= 4 / np.sqrt(n)


class TestMixtureCalibration:
    def test_alpha_zero_keeps_gap(self, rng):
        g = random_group(rng)
        plan = InterpolationPlan(0.0, g.base_rate)
        assert mixture_calibration_gap(g, plan) == pytest.approx(
            calibration_gap(g).gap, abs=EXACT
        )

    def test_alpha_one_is_perfectly_calibrated(self, rng):
        g = random_group(rng)
        plan = InterpolationPlan(1.0, g.base_rate)
        assert mixture_calibration_gap(g, plan) <= EXACT

    def test_matches_materialized_mixture(self, rng):
        for num, den in ((1, 2), (1, 4), (3, 4)):
            g = random_group(rng)
            plan = InterpolationPlan(num / den, g.base_rate)
            concrete = materialize_mixture(g, num, den, g.base_rate)
            assert mixture_calibration_gap(g, plan) == pytest.approx(
                calibration_gap(concrete).gap, abs=EXACT
            )

    def test_pools_existing_mass_at_the_trivial_output(self, rng):
        # A group that already emits its base rate somewhere must merge
        # that atom with the withheld mass.
        g = make_group([0.5, 0.5, 0.9, 0.1], [1, 0, 1, 0])
        assert g.base_rate == 0.5
        plan = InterpolationPlan(0.5, 0.5)
        concrete = materialize_mixture(g, 1, 2, 0.5)
        assert mixture_calibration_gap(g, plan) == pytest.approx(
            calibration_gap(concrete).gap, abs=EXACT
        )

    def test_contraction(self, rng):
        for _ in range(100):
            g = random_group(rng)
            gap = calibration_gap(g).gap
            for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
                plan = InterpolationPlan(alpha, g.base_rate)
                assert mixture_calibration_gap(g, plan) <= (1 - alpha) * gap + EXACT


class TestOptimalityAudit:
    def test_identical_points_pass(self):
        p = RatePoint(0.3, 0.4)
        assert not optimality_audit(p, p, 0.5, 0.01).flagged

    def test_boundary_is_not_flagged(self):
        reference = RatePoint(0.3, 0.4)
        delta, mu = 0.01, 0.5
        candidate = RatePoint(0.3 - 4 * delta / (1 - mu), 0.4)
        assert not optimality_audit(candidate, reference, mu, delta).flagged

    def test_beating_the_floor_is_flagged(self):
        reference = RatePoint(0.3, 0.4)
        delta, mu = 0.01, 0.5
        candidate = RatePoint(0.3 - 4 * delta / (1 - mu) - 1e-6, 0.4)
        assert optimality_audit(candidate, reference, mu, delta).flagged

    def test_fn_floor_also_checked(self):
        reference = RatePoint(0.3, 0.4)
        candidate = RatePoint(0.3, 0.1)
        assert optimality_audit(candidate, reference, 0.5, 0.01).flagged

    def test_calibrated_pairs_never_flagged(self, rng):
        # Cost-ordered perfectly calibrated pairs respect both rate floors.
        for _ in range(100):
            mu = float(rng.uniform(0.1, 0.9))
            spec = CostSpec(rng.uniform(0, 3), rng.uniform(0.1, 3))
            pts = []
            for _ in range(2):
                points, weights = calibrated_distribution(rng, mu)
                c_fp, c_fn = distribution_rates(points, weights, mu)
                pts.append(RatePoint(c_fp, c_fn))
            pts.sort(key=lambda p: cost(p, spec))
            reference, candidate = pts
            assert not optimality_audit(candidate, reference, mu, 0.0).flagged

    def test_rejects_bad_inputs(self):
        p = RatePoint(0.1, 0.1)
        with pytest.raises(ValueError):
            optimality_audit(p, p, 0.5, -0.1)
        with pytest.raises(ValueError):
            optimality_audit(p, p, 1.0, 0.1)
