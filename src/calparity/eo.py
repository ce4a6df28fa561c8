"""Equalized-odds baseline: prediction flipping and the rate-matching LP.

The derived classifier flips thresholded predictions at random: a score on
the positive side (>= 0.5) is replaced by its complement with probability
q_p2n, a score on the negative side with probability q_n2p. Expected rates
are affine in the four flip probabilities, so matching both generalized
rates across two groups while minimizing the summed thresholded 0/1 loss
is a small linear program. It is solved exactly by enumerating the
vertices of the feasible polytope (box facets intersected with the two
equality constraints), which is trivially auditable against a grid search.
Vertices whose objectives agree within ``OBJECTIVE_TIE_TOL`` tie, and the
tie goes to the lexicographically smallest flip vector. Each tolerance is
named, with what it decides, in ``metrics``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Mapping

import numpy as np

from .dataset import GroupData
from .metrics import OBJECTIVE_TIE_TOL, RATE_MATCH_TOL, TIE_KEY_DECIMALS, VERTEX_TOL
from .metrics import RatePoint, _exact_mean, _pooled_gap, _rank

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class GroupFlip:
    """Flip probabilities for one group: negative-to-positive and back."""

    q_n2p: float
    q_p2n: float

    def __post_init__(self) -> None:
        for name, v in (("q_n2p", self.q_n2p), ("q_p2n", self.q_p2n)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")


@dataclass(frozen=True)
class EOSolution:
    """The LP's status and, when optimal, the flip pair and derived rates of each group id."""

    status: str
    plan: dict[str, GroupFlip] | None
    rates: Mapping[str, RatePoint] | None
    objective: float | None

    def __post_init__(self) -> None:
        if self.status == STATUS_OPTIMAL:
            p, q = self.rates.values()
            if max(abs(p.c_fp - q.c_fp), abs(p.c_fn - q.c_fn)) > RATE_MATCH_TOL:
                raise ValueError("optimal solution does not match FP and FN rates")


def flipped_scores(scores: np.ndarray, q_n2p: float, q_p2n: float) -> np.ndarray:
    """Expected score of the flipped classifier at each score.

    Scores at exactly 0.5 count as positive predictions; their complement
    is again 0.5, so flipping never changes them.
    """
    q = np.where(scores >= 0.5, q_p2n, q_n2p)
    return np.clip(scores + q * (1.0 - 2.0 * scores), 0.0, 1.0)


def derived_rates(g: GroupData, q_n2p: float, q_p2n: float) -> RatePoint:
    """Expected generalized rates of the flipped classifier, from the atom table.

    Each atom's flipped score is summed with its class counts by the one
    exact sum, ``metrics._exact_mean``, so the rates are bit for bit the
    per-sample means and zero flips give the rates of the group itself.
    """
    GroupFlip(q_n2p, q_p2n)
    values, negatives, positives = g.atoms
    t = flipped_scores(values, q_n2p, q_p2n)
    return RatePoint(_exact_mean(t, negatives), _exact_mean(1.0 - t, positives))


def eo_calibration_damage(g: GroupData, q_n2p: float, q_p2n: float) -> float:
    """Exact-unique calibration gap of the flipped-output distribution.

    Each atom v splits its mass between the kept score v, weight 1 - q,
    and the reflected score 1 - v, weight q, so flipping a calibrated group
    mixes atoms with different conditional positive rates into shared
    score values.
    """
    GroupFlip(q_n2p, q_p2n)
    values, negatives, positives = g.atoms
    q = np.where(values >= 0.5, q_p2n, q_n2p)
    split = np.concatenate([1.0 - q, q]) / len(g)
    return _pooled_gap(
        np.concatenate([values, 1.0 - values]),
        split * np.tile(negatives + positives, 2),
        split * np.tile(positives, 2),
    )


def _affine(g: GroupData) -> tuple[np.ndarray, np.ndarray]:
    """FP, FN and thresholded 0/1 loss of the flipped classifier, affine in the flips.

    Returns ``(constant, coef)``: ``constant`` holds (fp, fn, loss) at zero
    flips and column j of the 3x2 ``coef`` their slopes in (q_n2p, q_p2n)[j].
    Per atom v the expected score is v + q * (1 - 2v), and the expected
    positive indicator is b + q * (f - b) where b thresholds v and f
    thresholds its complement.
    """
    values, negatives, positives = g.atoms
    neg = negatives / negatives.sum()
    pos = positives / positives.sum()
    b = (values >= 0.5).astype(float)
    swing = 1.0 - 2.0 * values
    shift = (values <= 0.5) - b
    constant = np.array(
        [
            (values * neg).sum(),
            ((1.0 - values) * pos).sum(),
            (b * neg).sum() + ((1.0 - b) * pos).sum(),
        ]
    )
    coef = np.array(
        [
            [(side * swing * neg).sum(), -(side * swing * pos).sum(), (side * shift * (neg - pos)).sum()]
            for side in (1.0 - b, b)
        ]
    ).T
    return constant, coef


def _enumerate_vertices(A: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """Vertices of {q in [0,1]^n : A q = b}.

    A feasible q is a vertex exactly when the columns of A at its
    coordinates strictly inside (0, 1) are independent. So with r =
    rank(A), each vertex is found from r independent columns, solved by
    least squares, with every other coordinate at 0 or 1; an inconsistent
    system leaves a residual and is rejected. A coordinate within
    ``VERTEX_TOL`` of 0 or 1 is snapped onto that bound, so no ``-0.0`` or
    rounding noise is returned.
    """
    n = A.shape[1]
    r = _rank(A)
    vertices: list[np.ndarray] = []
    for free in map(list, combinations(range(n), r)):
        fixed = [j for j in range(n) if j not in free]
        # r = 0 gets no linalg call on a zero-column matrix, which numpy versions treat differently.
        if r > 0 and _rank(A[:, free]) < r:
            continue
        for values in product((0.0, 1.0), repeat=n - r):
            q = np.empty(n)
            q[fixed] = values
            if r > 0:
                q[free] = np.linalg.lstsq(A[:, free], b - A[:, fixed] @ np.array(values), rcond=None)[0]
            if np.all(q >= -VERTEX_TOL) and np.all(q <= 1.0 + VERTEX_TOL):
                q[q <= VERTEX_TOL] = 0.0  # this snap also clips onto the box
                q[q >= 1.0 - VERTEX_TOL] = 1.0
                if np.max(np.abs(A @ q - b)) <= VERTEX_TOL:
                    vertices.append(q)
    return vertices


def solve_eo(g1: GroupData, g2: GroupData) -> EOSolution:
    """Flip probabilities minimizing summed 0/1 loss under equal rates.

    Constraints equalize the generalized FP and FN rates across the two
    groups; the objective is the sum of the groups' thresholded losses.
    Every vertex whose objective is within ``OBJECTIVE_TIE_TOL`` of the
    least ties with it, and the tie goes to the lexicographically smallest
    flip vector (q_n2p, q_p2n of the first group, then of the second),
    compared after rounding to ``TIE_KEY_DECIMALS`` decimals, so float
    noise in the objective never decides the plan.
    """
    if g1.group_id == g2.group_id:
        raise ValueError("the two groups must have distinct ids")
    const1, coef1 = _affine(g1)
    const2, coef2 = _affine(g2)
    # Rows 0 and 1 equalize FP and FN; row 2 is the summed loss.
    A = np.hstack([coef1[:2], -coef2[:2]])
    b = const2[:2] - const1[:2]
    c = np.concatenate([coef1[2], coef2[2]])
    c0 = const1[2] + const2[2]

    vertices = _enumerate_vertices(A, b)
    if not vertices:
        return EOSolution(STATUS_INFEASIBLE, None, None, None)
    objectives = [float(c @ q) for q in vertices]
    least = min(objectives)
    tied = [q for q, o in zip(vertices, objectives) if o <= least + OBJECTIVE_TIE_TOL]
    best = min(tied, key=lambda q: tuple(np.round(q, TIE_KEY_DECIMALS)))
    objective = c0 + float(c @ best)
    plan = {g.group_id: GroupFlip(float(best[2 * i]), float(best[2 * i + 1])) for i, g in enumerate((g1, g2))}
    rates = {g.group_id: derived_rates(g, f.q_n2p, f.q_p2n) for g, f in zip((g1, g2), plan.values())}
    return EOSolution(STATUS_OPTIMAL, plan, rates, objective)
