"""Differential tests: every atom-table statistic against a per-sample formula.

Each quantity below is computed twice: by the library from the group's
atom table ``(values, negatives, positives)``, and here by a plain Python
loop over the samples that never groups equal scores. They must agree
within 1e-12. The flipped classifier's rates are summed exactly on both
sides, so they must agree bit for bit.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from calparity.dataset import GroupData
from calparity import eo
from calparity.metrics import analytic_rates, calibration_gap, linearity_residual, rate_point
from calparity.parity import InterpolationPlan, mixture_calibration_gap
from oracles import derived_rates as per_sample_rates

TOL = 1e-12
SNAP = 1e-9  # RatePoint's slack at the edges of the unit square

scores = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 0.1, 0.25, 0.7]),
    st.floats(0.0, 1.0, allow_nan=False),
)
samples = st.lists(st.tuples(scores, st.integers(0, 1)), min_size=2, max_size=60)
unit = st.floats(0.0, 1.0, allow_nan=False)
# The ends of [0, 1], the smallest subnormal and both sides of the 0.5 threshold.
flip_scores = st.one_of(st.sampled_from([0.0, 5e-324, math.nextafter(0.5, 0.0), 0.5, 1.0]), unit)
flip_samples = st.lists(st.tuples(flip_scores, st.integers(0, 1)), min_size=2, max_size=60)
flips = st.one_of(st.sampled_from([0.0, 1.0]), unit)
SINGLE_ATOM = [(0.3, 0), (0.3, 1), (0.3, 1)]
EDGES = [(0.0, 0), (0.5, 1), (0.5, 0), (1.0, 1), (0.0, 1), (1.0, 0)]


def group(rows) -> GroupData:
    labels = [y for _, y in rows]
    assume(0 < sum(labels) < len(labels))
    return GroupData("g", np.array([s for s, _ in rows]), np.array(labels))


def snap(v: float) -> float:
    return min(max(v, 0.0), 1.0) if -SNAP <= v <= 1.0 + SNAP else v


def loop_gap(weighted) -> float:
    """Gap of (score, mass, label) triples, pooling equal scores by dict."""
    mass, positive = defaultdict(float), defaultdict(float)
    for s, w, y in weighted:
        mass[s] += w
        positive[s] += w * y
    return sum(abs(positive[v] - v * mass[v]) for v in mass)


def loop_flip_stats(g: GroupData, q_n2p: float, q_p2n: float) -> np.ndarray:
    """(fp, fn, thresholded loss) of the flipped classifier, per sample."""
    fp = fn = loss_neg = loss_pos = 0.0
    n_neg = n_pos = 0
    for s, y in zip(g.scores.tolist(), g.labels.tolist()):
        q = q_p2n if s >= 0.5 else q_n2p
        t = s + q * (1.0 - 2.0 * s)
        b = 1.0 if s >= 0.5 else 0.0
        f = 1.0 if 1.0 - s >= 0.5 else 0.0
        positive_call = b + q * (f - b)
        if y == 0:
            fp += t
            loss_neg += positive_call
            n_neg += 1
        else:
            fn += 1.0 - t
            loss_pos += 1.0 - positive_call
            n_pos += 1
    return np.array([fp / n_neg, fn / n_pos, loss_neg / n_neg + loss_pos / n_pos])


@given(samples)
@example(SINGLE_ATOM)
@example(EDGES)
def test_rates_moments_and_residual(rows):
    g = group(rows)
    s, y = g.scores.tolist(), g.labels.tolist()
    neg = [v for v, label in zip(s, y) if label == 0]
    pos = [v for v, label in zip(s, y) if label == 1]
    p = rate_point(g)
    c_fp, c_fn = sum(neg) / len(neg), sum(1.0 - v for v in pos) / len(pos)
    assert (p.c_fp, p.c_fn) == pytest.approx((c_fp, c_fn), abs=TOL)
    mu = len(pos) / len(s)
    assert linearity_residual(g) == pytest.approx(abs(mu * c_fn - (1.0 - mu) * c_fp), abs=TOL)
    spread = sum(s) / len(s) - sum(v * v for v in s) / len(s)
    # Reported as computed, also off the unit square on miscalibrated data;
    # only values within the snap band around [0, 1] move onto it.
    want = [snap(spread / (1.0 - mu)), snap(spread / mu)]
    assert list(analytic_rates(g)) == pytest.approx(want, abs=TOL)


@given(samples, st.integers(1, 12))
@example(SINGLE_ATOM, 1)
@example(EDGES, 2)
@example(EDGES, 2**53)
@example(EDGES, 4)
def test_both_binnings(rows, bins):
    g = group(rows)
    n = len(g)
    by_key: dict[str, dict] = {"exact-unique": defaultdict(list), "fixed-width": defaultdict(list)}
    for s, y in rows:
        by_key["exact-unique"][s].append((s, y))
        by_key["fixed-width"][min(int(s * bins), bins - 1)].append((s, y))
    for binning, cells in by_key.items():
        report = calibration_gap(g, binning, bins)
        expected = []
        for key in sorted(cells):
            cell = cells[key]
            mean = sum(s for s, _ in cell) / len(cell)
            expected.append((mean, sum(y for _, y in cell) / len(cell), len(cell) / n))
        assert len(report.per_bin) == len(expected)
        for got, want in zip(report.per_bin, expected):
            assert tuple(got) == pytest.approx(want, abs=TOL)
        assert report.gap == pytest.approx(sum(w * abs(f - m) for m, f, w in expected), abs=TOL)


@given(samples, unit, st.data())
@example(SINGLE_ATOM, 0.4, None)
@example(EDGES, 0.25, None)
def test_mixture_gap(rows, alpha, data):
    g = group(rows)
    # Half the draws put the trivial output on an existing atom.
    if data is None:
        trivial = 0.5 if 0.5 in g.scores else 0.3
    else:
        trivial = data.draw(st.sampled_from(sorted(set(g.scores.tolist()) - {0.0, 1.0}) or [0.3]) | st.floats(0.01, 0.99))
    n = len(g)
    weighted = []
    for s, y in zip(g.scores.tolist(), g.labels.tolist()):
        weighted.append((s, (1.0 - alpha) / n, y))
        weighted.append((trivial, alpha / n, y))
    plan = InterpolationPlan(alpha, trivial)
    assert mixture_calibration_gap(g, plan) == pytest.approx(loop_gap(weighted), abs=TOL)


@given(samples)
@example(SINGLE_ATOM)
@example(EDGES)
def test_flip_coefficients(rows):
    g = group(rows)
    constant, coef = eo._affine(g)
    zero = loop_flip_stats(g, 0.0, 0.0)
    np.testing.assert_allclose(constant, zero, rtol=0, atol=TOL)
    np.testing.assert_allclose(coef[:, 0], loop_flip_stats(g, 1.0, 0.0) - zero, rtol=0, atol=TOL)
    np.testing.assert_allclose(coef[:, 1], loop_flip_stats(g, 0.0, 1.0) - zero, rtol=0, atol=TOL)


@given(flip_samples, flips, flips)
@example(SINGLE_ATOM, 0.2, 0.7)
@example(EDGES, 1.0, 1.0)
def test_flip_rates_bit_for_bit(rows, q_n2p, q_p2n):
    g = group(rows)
    got, want = eo.derived_rates(g, q_n2p, q_p2n), per_sample_rates(g, q_n2p, q_p2n)
    assert (got.c_fp, got.c_fn) == (want.c_fp, want.c_fn)


@given(samples, unit, unit)
@example(SINGLE_ATOM, 0.2, 0.7)
@example(EDGES, 0.3, 0.6)
def test_flip_damage(rows, q_n2p, q_p2n):
    g = group(rows)
    n = len(g)
    weighted = []
    for s, y in zip(g.scores.tolist(), g.labels.tolist()):
        q = q_p2n if s >= 0.5 else q_n2p
        weighted.append((s, (1.0 - q) / n, y))
        weighted.append((1.0 - s, q / n, y))
    assert eo.eo_calibration_damage(g, q_n2p, q_p2n) == pytest.approx(loop_gap(weighted), abs=TOL)
