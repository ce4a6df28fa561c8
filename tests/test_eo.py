import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calparity.dataset import GroupData
from calparity.eo import (
    STATUS_OPTIMAL,
    EOSolution,
    GroupFlip,
    _affine,
    _enumerate_vertices,
    derived_rates,
    eo_calibration_damage,
    flipped_scores,
    solve_eo,
)
from calparity.metrics import RatePoint, calibration_gap, rate_point
from conftest import make_group, random_group
from oracles import eo_grid_oracle, expected_loss, vertices_by_row_reduction

EXACT = 1e-12
RATE_TOL = 1e-9


def eo_group(rng, gid) -> GroupData:
    """Random group with scores on both sides of the 0.5 threshold."""
    while True:
        g = random_group(rng, gid=gid)
        if np.any(g.scores >= 0.5) and np.any(g.scores < 0.5):
            return g


class TestDerivedRates:
    def test_zero_flips_are_identity(self, rng):
        g = random_group(rng)
        assert derived_rates(g, 0.0, 0.0) == rate_point(g)

    def test_full_flips_reflect_scores(self, rng):
        g = random_group(rng)
        reflected = GroupData(g.group_id, 1.0 - g.scores, g.labels)
        assert derived_rates(g, 1.0, 1.0) == rate_point(reflected)

    def test_reflection_complements_rates(self, rng):
        g = random_group(rng)
        base = rate_point(g)
        full = derived_rates(g, 1.0, 1.0)
        assert full.c_fp == pytest.approx(1.0 - base.c_fp, abs=EXACT)
        assert full.c_fn == pytest.approx(1.0 - base.c_fn, abs=EXACT)

    def test_binary_scores_match_monte_carlo(self):
        n = 100_000
        rng = np.random.default_rng(41)
        scores = rng.integers(0, 2, size=n).astype(float)
        labels = np.where(rng.random(n) < 0.8, scores, 1 - scores).astype(int)
        g = GroupData("g", scores, labels)
        q_p2n = 0.3
        expected = derived_rates(g, 0.0, q_p2n)
        flip = (scores >= 0.5) & (rng.random(n) < q_p2n)
        realized = GroupData("g", np.where(flip, 1.0 - scores, scores), labels)
        got = rate_point(realized)
        assert abs(got.c_fp - expected.c_fp) <= 4 / np.sqrt(n)
        assert abs(got.c_fn - expected.c_fn) <= 4 / np.sqrt(n)

    def test_affine_in_flip_probabilities(self, rng):
        # Per-sample expected-score computation, scalar loop, must agree.
        for _ in range(20):
            g = random_group(rng)
            q_n2p, q_p2n = rng.uniform(0, 1, size=2)
            fp_sum = fn_sum = 0.0
            n_neg = n_pos = 0
            for s, y in zip(g.scores, g.labels):
                q = q_p2n if s >= 0.5 else q_n2p
                t = (1 - q) * s + q * (1 - s)
                if y == 0:
                    fp_sum += t
                    n_neg += 1
                else:
                    fn_sum += 1 - t
                    n_pos += 1
            got = derived_rates(g, q_n2p, q_p2n)
            assert got.c_fp == pytest.approx(fp_sum / n_neg, abs=EXACT)
            assert got.c_fn == pytest.approx(fn_sum / n_pos, abs=EXACT)

    def test_half_score_is_flip_invariant(self):
        g = make_group([0.5, 0.5], [0, 1])
        assert np.all(flipped_scores(g.scores, 1.0, 1.0) == 0.5)

    def test_rejects_bad_probabilities(self, rng):
        g = random_group(rng)
        with pytest.raises(ValueError):
            derived_rates(g, -0.1, 0.5)


class TestSolveEO:
    def test_identical_groups_need_no_flips(self):
        scores = [0.2, 0.2, 0.2, 0.6, 0.8, 0.8, 0.8, 0.4]
        labels = [0, 0, 0, 0, 1, 1, 1, 1]
        g1 = make_group(scores, labels, gid="A")
        g2 = make_group(scores, labels, gid="B")
        solution = solve_eo(g1, g2)
        assert solution.status == STATUS_OPTIMAL
        for flip in solution.plan.values():
            assert flip.q_n2p == 0.0 and flip.q_p2n == 0.0
        assert solution.objective == pytest.approx(
            expected_loss(g1, 0, 0) + expected_loss(g2, 0, 0), abs=EXACT
        )

    def test_rates_match_across_groups(self, rng):
        for _ in range(25):
            g1 = eo_group(rng, "A")
            g2 = eo_group(rng, "B")
            solution = solve_eo(g1, g2)
            assert solution.status == STATUS_OPTIMAL
            r1, r2 = solution.rates["A"], solution.rates["B"]
            assert abs(r1.c_fp - r2.c_fp) <= RATE_TOL
            assert abs(r1.c_fn - r2.c_fn) <= RATE_TOL

    def test_objective_is_the_independent_loss(self, rng):
        for _ in range(10):
            g1 = eo_group(rng, "A")
            g2 = eo_group(rng, "B")
            solution = solve_eo(g1, g2)
            f1, f2 = solution.plan["A"], solution.plan["B"]
            independent = expected_loss(g1, f1.q_n2p, f1.q_p2n) + expected_loss(
                g2, f2.q_n2p, f2.q_p2n
            )
            assert solution.objective == pytest.approx(independent, abs=1e-9)

    def test_no_grid_point_beats_the_solver(self, rng):
        for _ in range(8):
            g1 = eo_group(rng, "A")
            g2 = eo_group(rng, "B")
            solution = solve_eo(g1, g2)
            oracle_best, bound = eo_grid_oracle(g1, g2, steps=26)
            assert oracle_best >= solution.objective - 1e-9
            assert oracle_best <= solution.objective + bound

    def test_deterministic(self, rng):
        g1 = eo_group(rng, "A")
        g2 = eo_group(rng, "B")
        s1 = solve_eo(g1, g2)
        s2 = solve_eo(g1, g2)
        assert s1.plan == s2.plan and s1.objective == s2.objective

    def test_requires_distinct_ids(self, rng):
        g = random_group(rng, gid="A")
        with pytest.raises(ValueError, match="distinct"):
            solve_eo(g, g)

    def test_solution_rates_match_within_tolerance(self):
        """An optimal solution's groups may differ by ``RATE_MATCH_TOL`` in each rate, not by twice it."""
        plan = {"A": GroupFlip(0.0, 0.0), "B": GroupFlip(0.0, 0.0)}
        EOSolution(STATUS_OPTIMAL, plan, {"A": RatePoint(0.0, 0.5), "B": RatePoint(1e-9, 0.5)}, 1.0)
        for other in (RatePoint(2e-9, 0.5), RatePoint(0.0, 0.5 + 2e-9)):
            with pytest.raises(ValueError, match="does not match"):
                EOSolution(STATUS_OPTIMAL, plan, {"A": RatePoint(0.0, 0.5), "B": other}, 1.0)


class TestVertexEnumeration:
    def test_inconsistent_system_is_infeasible(self):
        A = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        b = np.array([0.5, 2.0])
        assert _enumerate_vertices(A, b) == []

    def test_out_of_box_target_is_infeasible(self):
        A = np.array([[1.0, 0.0, 0.0, 0.0]])
        b = np.array([2.0])
        assert _enumerate_vertices(A, b) == []

    def test_redundant_row_is_dropped(self):
        A = np.array([[1.0, 1.0, 0.0, 0.0], [2.0, 2.0, 0.0, 0.0]])
        b = np.array([1.0, 2.0])
        vertices = _enumerate_vertices(A, b)
        assert vertices
        for q in vertices:
            assert abs(q[0] + q[1] - 1.0) <= 1e-9

    def test_unconstrained_box_yields_corners(self):
        A = np.zeros((1, 4))
        b = np.zeros(1)
        vertices = {tuple(v) for v in _enumerate_vertices(A, b)}
        assert len(vertices) == 16


# Score kinds: continuous, 0/1, three levels with 0.5 itself, and one decimal.
SCORE_KINDS = [
    st.floats(0.0, 1.0, allow_nan=False),
    st.sampled_from([0.0, 1.0]),
    st.sampled_from([0.2, 0.5, 0.8]),
    st.integers(0, 10).map(lambda i: i / 10),
]


@st.composite
def group_pairs(draw):
    """Two groups with scores of one kind; one pair in about seven is two equal groups."""
    kind = draw(st.sampled_from(SCORE_KINDS))
    rows = st.lists(st.tuples(kind, st.integers(0, 1)), min_size=2, max_size=12).filter(
        lambda r: 0 < sum(y for _, y in r) < len(r)
    )
    first = draw(rows)
    second = first if draw(st.integers(0, 6)) == 0 else draw(rows)
    return tuple(make_group(*zip(*r), gid=gid) for gid, r in (("A", first), ("B", second)))


def snapped(q: np.ndarray) -> np.ndarray:
    return np.where(q <= RATE_TOL, 0.0, np.where(q >= 1.0 - RATE_TOL, 1.0, q))


def tolerance(A: np.ndarray, q: np.ndarray) -> float:
    """1e-9, widened by the forward error any two solves may differ by at q's interior columns."""
    interior = (q > 0.0) & (q < 1.0)
    cond = np.linalg.cond(A[:, interior]) if interior.any() else 1.0
    return RATE_TOL + 16 * np.finfo(float).eps * cond


def same_points(A, xs, ys) -> bool:
    return all(min(np.max(np.abs(x - y)) for y in ys) <= tolerance(A, x) for x in xs)


@settings(max_examples=300, deadline=None)
@given(group_pairs())
# Interior columns of condition ~2e9: the two solves differ by 6e-8, within `tolerance` only.
@example((make_group([0.0, 0.0], [0, 1], gid="A"), make_group([0.0, 1e-9], [0, 1], gid="B")))
def test_matches_row_reduction_enumeration(pair):
    """Same feasibility and vertices as the row-reduction reference, and the plan its vertices' tie rule picks."""
    g1, g2 = pair
    (const1, coef1), (const2, coef2) = _affine(g1), _affine(g2)
    A = np.hstack([coef1[:2], -coef2[:2]])
    b = const2[:2] - const1[:2]
    c = np.concatenate([coef1[2], coef2[2]])
    got = _enumerate_vertices(A, b)
    want = [snapped(q) for q in vertices_by_row_reduction(A, b)]
    assert bool(got) == bool(want)
    assert same_points(A, got, want) and same_points(A, want, got)
    solution = solve_eo(g1, g2)
    assert (solution.status == STATUS_OPTIMAL) == bool(want)
    if want:
        # The tie rule on the reference's vertices: least objective, then least rounded q.
        objectives = [float(c @ q) for q in want]
        tied = [q for q, o in zip(want, objectives) if o <= min(objectives) + RATE_TOL]
        best = min(tied, key=lambda q: tuple(np.round(q, 9)))
        flips = [solution.plan[gid] for gid in ("A", "B")]
        chosen = np.array([v for f in flips for v in (f.q_n2p, f.q_p2n)])
        assert np.max(np.abs(chosen - best)) <= tolerance(A, best)


class TestCalibrationDamage:
    def test_zero_flips_keep_the_gap(self, rng):
        g = random_group(rng)
        assert eo_calibration_damage(g, 0.0, 0.0) == pytest.approx(
            calibration_gap(g).gap, abs=EXACT
        )

    def test_matches_materialized_mixture_at_half(self, rng):
        g = random_group(rng)
        concrete = GroupData(
            g.group_id,
            np.concatenate([g.scores, 1.0 - g.scores]),
            np.concatenate([g.labels, g.labels]),
        )
        assert eo_calibration_damage(g, 0.5, 0.5) == pytest.approx(
            calibration_gap(concrete).gap, abs=EXACT
        )

    def test_matches_materialized_per_side_mixture(self, rng):
        # q_n2p = 1/2 on the negative side, q_p2n = 1/4 on the positive
        # side; materialize with denominator 4.
        g = random_group(rng)
        pieces_s, pieces_y = [], []
        for s, y in zip(g.scores, g.labels):
            flips = 2 if s < 0.5 else 1
            pieces_s.extend([s] * (4 - flips) + [1.0 - s] * flips)
            pieces_y.extend([y] * 4)
        concrete = GroupData(g.group_id, np.array(pieces_s), np.array(pieces_y))
        assert eo_calibration_damage(g, 0.5, 0.25) == pytest.approx(
            calibration_gap(concrete).gap, abs=EXACT
        )

    def test_flipping_calibrated_data_hurts(self, rng):
        for _ in range(20):
            g = random_group(rng, calibrated=True)
            assert eo_calibration_damage(g, 0.3, 0.3) > calibration_gap(g).gap

    def test_full_reflection_of_calibrated_data(self, rng):
        g = random_group(rng, calibrated=True)
        assert eo_calibration_damage(g, 1.0, 1.0) > 0.0
