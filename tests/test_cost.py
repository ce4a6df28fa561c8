import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from calparity.cost import (
    CostSpec,
    Segment,
    calibrated_line,
    cost,
    level_curve,
    trivial_cost,
    weighted_cost_spec,
)
from calparity.metrics import RatePoint
from conftest import calibrated_distribution, distribution_rates

EXACT = 1e-12

specs = st.builds(
    CostSpec,
    st.floats(0.0, 10.0, allow_nan=False),
    st.floats(0.001, 10.0, allow_nan=False),
)


class TestCost:
    def test_weighted_sum(self):
        assert cost(RatePoint(0.2, 0.4), CostSpec(1.0, 1.0)) == pytest.approx(0.6, abs=EXACT)

    def test_perfect_classifier_costs_nothing(self):
        assert cost(RatePoint(0.0, 0.0), CostSpec(3.0, 5.0)) == 0.0

    def test_pure_fp_cost(self):
        assert cost(RatePoint(0.3, 0.7), CostSpec(1.0, 0.0)) == 0.3

    @pytest.mark.parametrize("a, b", [(float("nan"), 1.0), (1.0, float("inf")), (float("-inf"), 1.0)])
    def test_rejects_non_finite_weights(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            CostSpec(a, b)

    def test_rejects_degenerate_spec(self):
        with pytest.raises(ValueError):
            CostSpec(0.0, 0.0)
        with pytest.raises(ValueError):
            CostSpec(-1.0, 2.0)


class TestTrivialCost:
    def test_pure_fp(self):
        assert trivial_cost(0.3, CostSpec(1.0, 0.0)) == 0.3

    def test_symmetric(self):
        assert trivial_cost(0.5, CostSpec(1.0, 1.0)) == 1.0

    def test_equals_cost_of_trivial_rate_point(self):
        for mu in (0.1, 0.37, 0.9):
            spec = CostSpec(2.0, 3.0)
            assert trivial_cost(mu, spec) == cost(RatePoint(mu, 1.0 - mu), spec)

    @pytest.mark.parametrize("mu", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_degenerate_base_rate(self, mu):
        with pytest.raises(ValueError):
            trivial_cost(mu, CostSpec(1.0, 1.0))

    def test_upper_bounds_calibrated_classifiers(self, rng):
        # Sampled perfectly calibrated distributions never beat the
        # constant-base-rate classifier on any valid cost function.
        for mu in (0.1, 0.3, 0.5, 0.7, 0.9):
            ceiling = trivial_cost(mu, CostSpec(1.0, 1.0))
            for _ in range(200):
                points, weights = calibrated_distribution(rng, mu)
                c_fp, c_fn = distribution_rates(points, weights, mu)
                assert cost(RatePoint(c_fp, c_fn), CostSpec(1.0, 1.0)) <= ceiling + EXACT


class TestWeightedCostSpec:
    def test_expectation_coefficients(self):
        # E[r_fp*h*(1-y)] = r_fp*(1-mu)*c_fp and E[r_fn*(1-h)*y] = r_fn*mu*c_fn.
        spec = weighted_cost_spec(1.0, 3.0, 0.5)
        assert (spec.a, spec.b) == (0.5, 1.5)

    def test_fp_only(self):
        spec = weighted_cost_spec(1.0, 0.0, 0.3)
        assert spec.a == 1.0 * (1.0 - 0.3)
        assert spec.b == 0.0

    def test_symmetry(self):
        spec = weighted_cost_spec(1.0, 1.0, 0.5)
        assert (spec.a, spec.b) == (0.5, 0.5)

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            weighted_cost_spec(0.0, 0.0, 0.5)


class TestLevelCurve:
    def test_diagonal(self):
        assert level_curve(CostSpec(1.0, 1.0), 1.0) == ((0.0, 1.0), (1.0, 0.0))

    def test_vertical_for_fp_only_cost(self):
        assert level_curve(CostSpec(1.0, 0.0), 0.4) == ((0.4, 0.0), (0.4, 1.0))

    def test_horizontal_for_fn_only_cost(self):
        assert level_curve(CostSpec(0.0, 2.0), 1.0) == ((0.0, 0.5), (1.0, 0.5))

    def test_empty_outside_unit_square(self):
        assert level_curve(CostSpec(1.0, 1.0), 3.0) == ()

    def test_zero_level_touches_origin(self):
        assert level_curve(CostSpec(1.0, 1.0), 0.0) == ((0.0, 0.0),)

    def test_clipped_segment(self):
        assert level_curve(CostSpec(2.0, 1.0), 2.5) == ((0.75, 1.0), (1.0, 0.5))

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            level_curve(CostSpec(1.0, 1.0), -0.1)

    def test_corner_is_one_point(self):
        # Its candidates on two edges are (1.0, 1.0) and (0.9999999999999998, 1.0).
        assert level_curve(CostSpec(0.1, 0.9), 1.0) == ((1.0, 1.0),)

    @pytest.mark.parametrize(
        "a, b, c, want",
        [
            (0.0, 1.0, 1.0 + 5e-10, ((0.0, 1.0), (1.0, 1.0))),  # just above the top edge: snapped onto it
            (1.0, 0.0, 1.0 + 5e-10, ((1.0, 0.0), (1.0, 1.0))),
            (1.0, 1.0, 2.0 + 5e-10, ((1.0, 1.0),)),  # just past the far corner: that corner
            # The top edge holds the snapped corner (0, 1) and the level set's own endpoint (5e-9, 1): the
            # segment runs from the outermost point on the left to the one on the right.
            (1.0, 10.0, 10.0 + 5e-9, ((0.0, 1.0), (1.0, (10.0 + 5e-9 - 1.0) / 10.0))),
            (0.0, 1.0, 1.0 + 2e-9, ()),  # beyond the slack the level set misses the square
            (1.0, 1.0, 2.0 + 2e-9, ()),
        ],
    )
    def test_slack_band(self, a, b, c, want):
        """Candidates up to ``COORD_SLACK`` outside the square are snapped onto it, as a ``RatePoint``'s rates are."""
        assert level_curve(CostSpec(a, b), c) == want

    @given(specs, st.floats(0.0, 20.0, allow_nan=False))
    @example(CostSpec(1e-12, 1.0), 1.0)  # once snapped 1 - 1e-12 to 1, off the level set
    def test_endpoints_lie_on_the_level_set(self, spec, c):
        for x, y in level_curve(spec, c):
            assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0
            assert abs(spec.a * x + spec.b * y - c) <= EXACT

    def test_intersects_calibrated_line_at_most_once(self, rng):
        # Cost strictly increases along the calibrated line, so each level
        # is crossed at most once.
        for _ in range(100):
            mu = rng.uniform(0.05, 0.95)
            spec = CostSpec(rng.uniform(0.0, 5.0), rng.uniform(0.1, 5.0))
            t = np.linspace(0.0, 1.0, 50)
            costs = spec.a * t * mu + spec.b * t * (1.0 - mu)
            assert np.all(np.diff(costs) > 0.0)


class TestCalibratedLine:
    def test_balanced_group(self):
        assert calibrated_line(0.5) == Segment(0.0, 0.0, 0.5, 0.5)

    def test_slope_from_base_rate(self):
        seg = calibrated_line(0.25)
        assert (seg.x1, seg.y1) == (0.25, 0.75)
        assert (seg.y1 - seg.y0) / (seg.x1 - seg.x0) == pytest.approx(3.0, abs=EXACT)

    def test_upper_endpoint_on_diagonal(self, rng):
        for _ in range(50):
            mu = rng.uniform(0.01, 0.99)
            seg = calibrated_line(mu)
            assert seg.x1 + seg.y1 == pytest.approx(1.0, abs=EXACT)

    @pytest.mark.parametrize("mu", [0.0, 1.0])
    def test_rejects_degenerate(self, mu):
        with pytest.raises(ValueError):
            calibrated_line(mu)

    def test_monotone_costs_mean_smaller_coordinates(self, rng):
        # Along the calibrated line, lower cost implies strictly smaller
        # FP and FN simultaneously.
        for _ in range(50):
            mu = rng.uniform(0.05, 0.95)
            spec = CostSpec(rng.uniform(0.0, 5.0), rng.uniform(0.1, 5.0))
            t1, t2 = sorted(rng.uniform(0.0, 1.0, size=2))
            if t1 == t2:
                continue
            p1 = RatePoint(t1 * mu, t1 * (1.0 - mu))
            p2 = RatePoint(t2 * mu, t2 * (1.0 - mu))
            assert cost(p1, spec) < cost(p2, spec)
            assert p1.c_fp < p2.c_fp and p1.c_fn < p2.c_fn
