import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from calparity.dataset import GroupData
from calparity.metrics import (
    MomentRates,
    RatePoint,
    _exact_mean,
    analytic_rates,
    calibration_gap,
    generalized_fn,
    generalized_fp,
    linearity_residual,
    rate_point,
)
from calparity.synthetic import SynthSpec, synth
from conftest import make_group, random_group
from oracles import exact_mean

EXACT = 1e-12


def trivial_transform(g: GroupData) -> GroupData:
    """Replace every score with the group's base rate."""
    return GroupData(g.group_id, np.full(len(g), g.base_rate), g.labels)


class TestGeneralizedRates:
    def test_fp_is_mean_negative_score(self):
        g = make_group([0.2, 0.8, 0.9], [0, 0, 1])
        assert generalized_fp(g) == 0.5
        assert generalized_fn(g) == pytest.approx(0.1, abs=EXACT)

    def test_fn_is_mean_score_complement(self):
        g = make_group([0.2, 0.9, 0.5], [1, 1, 0])
        assert generalized_fn(g) == pytest.approx(0.45, abs=EXACT)

    def test_perfect_classifier_sits_at_origin(self):
        g = make_group([0.0, 0.0, 1.0, 1.0], [0, 0, 1, 1])
        assert rate_point(g) == RatePoint(0.0, 0.0)

    def test_trivial_classifier_rates(self):
        # Constant predictor at the base rate: rate point (mu, 1 - mu).
        g = make_group([0.3] * 10, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        p = rate_point(g)
        assert p.c_fp == pytest.approx(0.3, abs=EXACT)
        assert p.c_fn == pytest.approx(0.7, abs=EXACT)

    def test_trivial_transform_of_random_groups(self, rng):
        for _ in range(50):
            g = trivial_transform(random_group(rng))
            p = rate_point(g)
            assert p.c_fp == pytest.approx(g.base_rate, abs=EXACT)
            assert p.c_fn == pytest.approx(1.0 - g.base_rate, abs=EXACT)
            assert p.c_fp + p.c_fn == pytest.approx(1.0, abs=EXACT)


class TestAnalyticRates:
    def test_trivial_classifier_moments(self):
        g = make_group([0.3] * 10, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        p = analytic_rates(g)
        assert p.c_fp == pytest.approx(0.3, abs=EXACT)
        assert p.c_fn == pytest.approx(0.7, abs=EXACT)

    def test_perfect_classifier_moments(self):
        g = make_group([0.0, 1.0, 1.0], [0, 1, 1])
        assert analytic_rates(g) == MomentRates(0.0, 0.0)

    def test_matches_empirical_rates_on_calibrated_data(self):
        n = 100_000
        g = synth(SynthSpec(n, "grid", (0.1, 0.9, 9), seed=17))
        empirical = rate_point(g)
        predicted = analytic_rates(g)
        assert abs(empirical.c_fp - predicted.c_fp) <= 4 / np.sqrt(n)
        assert abs(empirical.c_fn - predicted.c_fn) <= 4 / np.sqrt(n)


class TestCalibrationGap:
    def test_zero_when_every_atom_matches(self, rng):
        for _ in range(20):
            g = random_group(rng, calibrated=True)
            assert calibration_gap(g).gap <= EXACT

    def test_single_mass_point(self):
        # All scores 0.5 with a 3/4 positive fraction: gap |0.75 - 0.5|.
        g = make_group([0.5] * 4, [1, 1, 1, 0])
        assert calibration_gap(g).gap == pytest.approx(0.25, abs=EXACT)

    def test_trivial_classifier_is_calibrated(self):
        g = make_group([0.3] * 10, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        assert calibration_gap(g).gap <= EXACT

    def test_exact_unique_report_structure(self):
        g = make_group([0.2, 0.2, 0.8, 0.8], [0, 0, 1, 1])
        report = calibration_gap(g)
        assert [b.mean_score for b in report.per_bin] == [0.2, 0.8]
        assert [b.weight for b in report.per_bin] == [0.5, 0.5]
        assert sum(b.weight for b in report.per_bin) == pytest.approx(1.0, abs=EXACT)
        assert report.per_bin.dtype.names == ("mean_score", "positive_fraction", "weight")

    def test_fixed_width_binning(self):
        g = make_group([0.05, 0.149, 0.95, 1.0], [0, 0, 1, 1])
        report = calibration_gap(g, "fixed-width", bins=10)
        # 0.05 and 0.149 pool into [0, 0.1) and [0.1, 0.2); 0.95 and 1.0
        # both land in the right-closed last bin.
        assert [b.weight for b in report.per_bin] == [0.25, 0.25, 0.5]
        assert [b.mean_score for b in report.per_bin] == [0.05, 0.149, 0.975]
        assert sum(b.weight for b in report.per_bin) == pytest.approx(1.0, abs=EXACT)

    def test_fixed_width_needs_bins(self):
        g = make_group([0.2, 0.8], [0, 1])
        with pytest.raises(ValueError, match="bins"):
            calibration_gap(g, "fixed-width", bins=0)

    def test_unknown_mode(self):
        g = make_group([0.2, 0.8], [0, 1])
        with pytest.raises(ValueError, match="binning"):
            calibration_gap(g, "quantile")


class TestLinearityResidual:
    def test_trivial_classifier_residual_vanishes(self):
        g = make_group([0.3] * 10, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        assert linearity_residual(g) <= EXACT

    def test_balanced_mass_point(self):
        g = make_group([0.5, 0.5], [0, 1])
        assert linearity_residual(g) == 0.0

    def test_bounded_by_twice_the_gap(self, rng):
        # Holds for every empirical distribution, calibrated or not.
        for i in range(200):
            g = random_group(rng, calibrated=(i % 3 == 0))
            gap = calibration_gap(g).gap
            assert linearity_residual(g) <= 2.0 * gap + EXACT

    def test_calibrated_synthetic_residual(self):
        g = synth(SynthSpec(20_000, "grid", (0.2, 0.8, 7), seed=23))
        assert linearity_residual(g) <= 2.0 * calibration_gap(g).gap + EXACT


class TestRatePoint:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RatePoint(1.2, 0.0)
        with pytest.raises(ValueError):
            RatePoint(0.0, -0.2)

    def test_snaps_float_noise(self):
        p = RatePoint(1.0 + 1e-13, -1e-13)
        assert p.c_fp == 1.0
        assert p.c_fn == 0.0

    def test_slack_edges(self):
        """Up to ``COORD_SLACK`` outside [0, 1] is snapped onto it; twice that is rejected."""
        assert RatePoint(1.0 + 1e-9, -1e-9) == RatePoint(1.0, 0.0)
        for fp, fn in ((1.0 + 2e-9, 0.5), (0.5, -2e-9)):
            with pytest.raises(ValueError, match="outside"):
                RatePoint(fp, fn)

    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_accepts_unit_square(self, fp, fn):
        p = RatePoint(fp, fn)
        assert p.c_fp == fp and p.c_fn == fn


CAP = 2**45  # GroupData's bound on a group's total count
# Subnormals, both ends, and full 53-bit mantissas on either side of 0.5.
kernel_values = st.one_of(
    st.sampled_from([5e-324, 1e-310, 0.0, 1.0, 1.0 - 2.0**-53, 0.5 - 2.0**-54, (2**53 - 1) / 2**54]),
    st.floats(0.0, 1.0, allow_nan=False),
)


class TestExactMean:
    """``_exact_mean`` against the ``Fraction`` oracle: the exact sum rounded once, then divided."""

    @given(
        st.lists(st.tuples(kernel_values, st.integers(0, CAP // 64)), min_size=1, max_size=60),
        st.integers(0, 3),
    )
    @example([(5e-324, 1), (1e-310, 3), (0.0, 5), (1.0, 7)], 0)
    @example([(0.7, 2), (1e-310, 1), (0.3, 2), (5e-324, 9), (0.9, 1)], 0)
    @example([(1.0 - 2.0**-53, CAP // 64 - 1), (5e-324, 1)], 0)
    def test_matches_fraction_oracle(self, pairs, top):
        """Values come in no order; ``top`` more pairs bring the counts to one below the cap."""
        values, counts = map(list, zip(*pairs))
        if sum(counts) == 0:
            counts[0] = 1
        if top:
            rest = CAP - 1 - sum(counts)
            values += [(2**53 - 1) / 2**53, 5e-324, 0.5][:top]
            counts += [rest // top + (i < rest % top) for i in range(top)]
            assert sum(counts) == CAP - 1
        got = _exact_mean(np.array(values), np.array(counts, dtype=float))
        assert got == exact_mean(values, counts)

    def test_one_long_exponent_run(self, rng):
        """A run of equal binary exponent far longer than a fold of 2**16 entries, counts near the cap."""
        values = rng.uniform(0.5, 1.0, 70_000)
        counts = rng.integers(0, (CAP - 1) // 70_000, 70_000).astype(float)
        want = exact_mean(values.tolist(), counts.tolist())
        assert _exact_mean(values, counts) == want
        assert _exact_mean(values[::-1], counts[::-1]) == want

    def test_large_group_matches_per_sample_fsum(self):
        """On 200k rows of ~170k distinct scores, the rates are the per-sample fsum means bit for bit."""
        g = synth(SynthSpec(200_000, "beta_grid", (2, 4, 1e6), seed=3))
        scores, labels = g.samples()
        want = (
            math.fsum(scores[labels == 0].tolist()) / int(np.sum(labels == 0)),
            math.fsum((1.0 - scores[labels == 1]).tolist()) / int(np.sum(labels == 1)),
        )
        assert len(g.atoms[0]) > 150_000
        assert (generalized_fp(g), generalized_fn(g)) == want
