"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print. Every tolerance is pinned here; nothing is deferred to calibration.
"""

from __future__ import annotations

import functools
import json
import time
from fractions import Fraction
from math import lcm

import numpy as np

from calparity.cli import main
from calparity.cost import CostPair, CostSpec, cost, trivial_cost
from calparity.dataset import GroupData
from calparity.eo import solve_eo
from calparity.impossibility import approximate_bound, build_matrix
from calparity.metrics import (
    RatePoint,
    analytic_rates,
    calibration_gap,
    rate_point,
)
from calparity.parity import (
    MODE_MONTE_CARLO,
    InterpolationPlan,
    compute_alpha,
    mixture_calibration_gap,
    mixture_cost,
    mixture_rate_point,
    optimality_audit,
    realize_mixture,
)
from calparity.synthetic import SynthSpec, synth
from calparity.writer import write_csv
from conftest import make_group, random_group
from oracles import eo_grid_oracle

EXACT = 1e-12


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL: {title}")
                raise
            print(f"ACCEPTANCE {number:02d} PASS: {title}")

        return wrapper

    return decorate


def random_spec(rng) -> CostSpec:
    return CostSpec(float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.05, 4.0)))


@criterion(1, "interpolation linearity within 1e-12 on 1000 random pairs")
def test_interpolation_linearity():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for _ in range(1000):
        g = random_group(rng)
        spec = random_spec(rng)
        alpha = float(rng.uniform(0.0, 1.0))
        plan = InterpolationPlan(alpha, g.base_rate)
        base = cost(rate_point(g), spec)
        ceiling = trivial_cost(g.base_rate, spec)
        target = (1.0 - alpha) * base + alpha * ceiling
        assert abs(mixture_cost(g, plan, spec) - target) <= EXACT
    assert time.perf_counter() - started <= 5.0


@criterion(2, "equal-cost exactness within 1e-12 on 200 feasible instances")
def test_equal_cost_exactness():
    rng = np.random.default_rng(202)
    done = 0
    while done < 200:
        g1 = random_group(rng, gid="A")
        g2 = random_group(rng, gid="B")
        spec1 = random_spec(rng)
        spec2 = random_spec(rng)
        c1 = cost(rate_point(g1), spec1)
        c2 = cost(rate_point(g2), spec2)
        if c1 < c2:
            g1, g2 = g2, g1
            spec1, spec2 = spec2, spec1
            c1, c2 = c2, c1
        ceiling = trivial_cost(g2.base_rate, spec2)
        if c1 > ceiling or ceiling - c2 < 1e-6:
            continue
        alpha = compute_alpha(c1, c2, ceiling)
        plan = InterpolationPlan(alpha, g2.base_rate)
        assert abs(mixture_cost(g2, plan, spec2) - c1) <= EXACT
        done += 1


@criterion(3, "calibration gap contracts by (1 - alpha) on 200 datasets")
def test_calibration_contraction():
    rng = np.random.default_rng(303)
    for i in range(200):
        g = random_group(rng, calibrated=(i % 4 == 0))
        gap = calibration_gap(g).gap
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            plan = InterpolationPlan(alpha, g.base_rate)
            assert mixture_calibration_gap(g, plan) <= (1.0 - alpha) * gap + EXACT


@criterion(4, "trivial classifier maximizes cost over 10^4 calibrated distributions per mu")
def test_trivial_maximality():
    rng = np.random.default_rng(404)
    n, k = 10_000, 8
    spec_weights = rng.uniform(0.0, 4.0, size=(20, 2))
    spec_weights[:, 1] = np.maximum(spec_weights[:, 1], 0.05)
    for mu in np.arange(0.1, 0.95, 0.1):
        points = rng.uniform(0.001, 0.999, size=(n, k))
        raw = rng.uniform(0.1, 1.0, size=(n, k))
        weights = raw / raw.sum(axis=1, keepdims=True)
        m = np.sum(weights * points, axis=1)
        lam_max = 0.999 * np.minimum(1.0, np.minimum(mu / m, (1.0 - mu) / (1.0 - m)))
        lam = rng.uniform(0.0, 1.0, size=n) * lam_max
        q = (mu - lam * m) / (1.0 - lam)
        all_points = np.column_stack([points, q])
        all_weights = np.column_stack([weights * lam[:, None], 1.0 - lam])
        spread = np.sum(all_weights * all_points * (1.0 - all_points), axis=1)
        c_fp = spread / (1.0 - mu)
        c_fn = spread / mu
        for a, b in spec_weights:
            costs = a * c_fp + b * c_fn
            ceiling = a * mu + b * (1.0 - mu)
            assert float(costs.max()) <= ceiling + EXACT


@criterion(5, "linearity residual bounded by twice the gap on 500 datasets")
def test_calibrated_linearity():
    from calparity.metrics import linearity_residual

    rng = np.random.default_rng(505)
    for i in range(500):
        g = random_group(rng, calibrated=(i % 2 == 0))
        assert linearity_residual(g) <= 2.0 * calibration_gap(g).gap + EXACT


@criterion(6, "moment formulas match empirical rates within 4/sqrt(n), 50 seeds")
def test_exact_rate_formulas():
    n = 100_000
    tol = 4.0 / np.sqrt(n)
    for seed in range(50):
        family = ("grid", (0.1, 0.9, 9)) if seed % 2 == 0 else ("beta_grid", (2.0, 3.0, 25))
        g = synth(SynthSpec(n, family[0], family[1], seed=seed))
        empirical = rate_point(g)
        predicted = analytic_rates(g)
        assert abs(empirical.c_fp - predicted.c_fp) <= tol
        assert abs(empirical.c_fn - predicted.c_fn) <= tol


@criterion(7, "flip LP matches the coordinate-profiled grid oracle, 50 instances")
def test_eo_lp_correctness():
    rng = np.random.default_rng(707)
    started = time.perf_counter()
    solved = 0
    while solved < 50:
        g1 = random_group(rng, gid="A")
        g2 = random_group(rng, gid="B")
        sides = lambda g: np.any(g.scores >= 0.5) and np.any(g.scores < 0.5)
        if not (sides(g1) and sides(g2)):
            continue
        solution = solve_eo(g1, g2)
        assert solution.status == "optimal"
        r1, r2 = solution.rates["A"], solution.rates["B"]
        assert abs(r1.c_fp - r2.c_fp) <= 1e-9
        assert abs(r1.c_fn - r2.c_fn) <= 1e-9
        oracle_best, bound = eo_grid_oracle(g1, g2, steps=101)
        assert oracle_best >= solution.objective - 1e-9
        assert oracle_best <= solution.objective + bound
        solved += 1
    assert time.perf_counter() - started <= 60.0


@criterion(8, "cost above the trivial ceiling reproduces the infeasible verdict")
def test_infeasibility_reproduction(tmp_path, capsys):
    g1 = make_group([0.8, 0.8, 0.9], [0, 0, 1], gid="A")
    g2 = make_group([0.3] * 10, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0], gid="B")
    path = tmp_path / "infeasible.csv"
    write_csv([g1, g2], path)
    code = main(
        ["postprocess-calibrated", "--input", str(path), "--cost", "1,0,1,0"]
    )
    out, _ = capsys.readouterr()
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "infeasible"
    assert doc["feasibility"]["reason"] == "exceeds_trivial"


def _near_perfect(gid: str, mu: Fraction, copies: int, eps: float) -> GroupData:
    n = mu.denominator * copies
    n_pos = mu.numerator * copies
    scores = np.r_[np.full(n_pos, 1.0 - eps), np.full(n - n_pos, eps)]
    labels = np.r_[np.ones(n_pos, dtype=int), np.zeros(n - n_pos, dtype=int)]
    return GroupData(gid, scores, labels)


@criterion(9, "approximate impossibility bound holds on 100 engineered instances")
def test_approximate_impossibility():
    rng = np.random.default_rng(909)
    mu_presets = [
        (Fraction(1, 3), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(1, 2)),
        (Fraction(1, 5), Fraction(2, 5)),
        (Fraction(1, 4), Fraction(3, 4)),
        (Fraction(2, 5), Fraction(1, 2)),
    ]
    pair_presets = [
        (CostPair(CostSpec(1, 0), CostSpec(1, 0)), CostPair(CostSpec(0, 1), CostSpec(0, 1))),
        (CostPair(CostSpec(1, 1), CostSpec(1, 1)), CostPair(CostSpec(1, 0), CostSpec(1, 0))),
        (CostPair(CostSpec(2, 1), CostSpec(2, 1)), CostPair(CostSpec(0, 1), CostSpec(0, 1))),
    ]
    for i in range(100):
        mu1, mu2 = mu_presets[i % len(mu_presets)]
        pair, pair_prime = pair_presets[i % len(pair_presets)]
        eps1, eps2 = rng.uniform(0.0, 0.08, size=2)
        g1 = _near_perfect("A", mu1, copies=4, eps=float(eps1))
        g2 = _near_perfect("B", mu2, copies=4, eps=float(eps2))

        entries = [
            Fraction(1),
            -mu1 / (1 - mu1),
            Fraction(1),
            -mu2 / (1 - mu2),
        ] + [
            Fraction(v)
            for p in (pair, pair_prime)
            for v in (p.spec_1.a, p.spec_1.b, p.spec_2.a, p.spec_2.b)
        ]
        D = lcm(*(e.denominator for e in entries))
        M = float(max(abs(e) for e in entries))

        matrix = build_matrix(g1.base_rate, g2.base_rate, pair, pair_prime)
        p1, p2 = rate_point(g1), rate_point(g2)
        delta_cal = max(calibration_gap(g1).gap, calibration_gap(g2).gap)
        delta_cost = max(
            abs(cost(p1, pr.spec_1) - cost(p2, pr.spec_2)) for pr in (pair, pair_prime)
        )
        bound = approximate_bound(matrix, delta_cal, delta_cost, M=M, D=D)
        rates = [p1.c_fp, p1.c_fn, p2.c_fp, p2.c_fn]
        assert max(rates) <= bound.rate_bound + EXACT

    # Zero slack with perfect classifiers: the bound collapses to zero and
    # the rates meet it with equality.
    g1 = _near_perfect("A", Fraction(1, 3), copies=4, eps=0.0)
    g2 = _near_perfect("B", Fraction(1, 2), copies=4, eps=0.0)
    pair, pair_prime = pair_presets[0]
    matrix = build_matrix(g1.base_rate, g2.base_rate, pair, pair_prime)
    bound = approximate_bound(matrix, 0.0, 0.0, M=1.0, D=2)
    p1, p2 = rate_point(g1), rate_point(g2)
    assert bound.rate_bound == 0.0
    assert max(p1.c_fp, p1.c_fn, p2.c_fp, p2.c_fn) == 0.0


@criterion(10, "Monte Carlo realizations track analytic rates, 20 seeds")
def test_monte_carlo_consistency():
    n = 100_000
    tol = 4.0 / np.sqrt(n)
    g = synth(SynthSpec(n, "grid", (0.1, 0.9, 9), seed=1000))
    for seed in range(20):
        alpha = 0.05 + 0.045 * seed
        plan = InterpolationPlan(alpha, g.base_rate, MODE_MONTE_CARLO, seed=seed)
        mixture = realize_mixture(g, plan)
        again = realize_mixture(g, plan)
        assert np.array_equal(mixture.withheld, again.withheld)
        got = rate_point(mixture.realized)
        expected = mixture_rate_point(g, plan)
        assert abs(got.c_fp - expected.c_fp) <= tol
        assert abs(got.c_fn - expected.c_fn) <= tol


@criterion(11, "cost-error audit never flags 500 calibrated pairs")
def test_cost_error_relation():
    from conftest import calibrated_distribution, distribution_rates

    rng = np.random.default_rng(1111)
    for _ in range(500):
        mu = float(rng.uniform(0.1, 0.9))
        spec = random_spec(rng)
        candidates = []
        for _ in range(2):
            points, weights = calibrated_distribution(rng, mu)
            c_fp, c_fn = distribution_rates(points, weights, mu)
            candidates.append(RatePoint(c_fp, c_fn))
        candidates.sort(key=lambda p: cost(p, spec))
        reference, candidate = candidates
        assert cost(candidate, spec) >= cost(reference, spec)
        assert not optimality_audit(candidate, reference, mu, 0.0).flagged
