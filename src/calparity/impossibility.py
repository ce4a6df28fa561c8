"""Diagnostics for systems with more than one equal-cost constraint.

Two calibration constraints plus two distinct equal-cost constraints give
four independent linear conditions on the four generalized rates, so the
only exact solution is a pair of perfect classifiers. The approximate form
bounds every rate by L * max{2*d_cal/(1-mu1), 2*d_cal/(1-mu2), d_cost}
with L = 16*M^3*D^4, where M bounds the magnitude and D the common
denominator of the (caller-asserted rational) constraint-matrix entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import CostPair, _require_base_rate
from .metrics import _rank


@dataclass(frozen=True, eq=False)
class ConstraintMatrix:
    """The 4x4 system: two calibration rows, two equal-cost rows.

    Rows apply to the rate vector (fp1, fn1, fp2, fn2). The calibration
    rows are [1, -mu/(1-mu), 0, 0] patterns; the cost rows are the
    coefficient differences [a1, b1, -a2, -b2].
    """

    rows: np.ndarray
    mu1: float
    mu2: float
    distinct: bool

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float).copy()
        if rows.shape != (4, 4):
            raise ValueError("constraint matrix must be 4x4")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class ExactCheck:
    satisfied: bool
    residuals: tuple[float, float, float, float]
    tol: float


@dataclass(frozen=True)
class ImpossibilityBound:
    """Rate bound implied by approximately satisfied constraints."""

    M: float
    D: int
    L: float
    delta_cal: float
    delta_cost: float
    rate_bound: float

    def __post_init__(self) -> None:
        if self.L != 16.0 * self.M**3 * self.D**4:
            raise ValueError("L must equal 16 * M^3 * D^4 exactly")


def build_matrix(mu1: float, mu2: float, pair: CostPair, pair_prime: CostPair) -> ConstraintMatrix:
    """Assemble the constraint matrix and decide constraint distinctness.

    The two cost constraints are distinct when their coefficient rows are
    linearly independent, as ``metrics._rank`` judges at ``PIVOT_TOL``.
    """
    for mu in (mu1, mu2):
        _require_base_rate(mu)
    rows = np.array(
        [
            [1.0, -mu1 / (1.0 - mu1), 0.0, 0.0],
            [0.0, 0.0, 1.0, -mu2 / (1.0 - mu2)],
            [pair.spec_1.a, pair.spec_1.b, -pair.spec_2.a, -pair.spec_2.b],
            [pair_prime.spec_1.a, pair_prime.spec_1.b, -pair_prime.spec_2.a, -pair_prime.spec_2.b],
        ]
    )
    return ConstraintMatrix(rows, mu1, mu2, _rank(rows[2:]) == 2)


def exact_impossibility_check(matrix: ConstraintMatrix, p1, p2, tol: float) -> ExactCheck:
    """Evaluate all four constraint residuals at the groups' rate points.

    ``p1`` and ``p2`` are the ``metrics.RatePoint`` of G1 and G2, the
    groups whose base rates built ``matrix``. A satisfied verdict at small
    tol forces all four generalized rates to be near zero; the
    perfect-classifier pair satisfies everything exactly.
    """
    if not matrix.distinct:
        raise ValueError("the two cost constraints are not distinct")
    if tol < 0.0:
        raise ValueError("tol must be non-negative")
    q = np.array([p1.c_fp, p1.c_fn, p2.c_fp, p2.c_fn])
    residuals = matrix.rows @ q
    return ExactCheck(
        bool(np.max(np.abs(residuals)) <= tol),
        tuple(float(r) for r in residuals),
        tol,
    )


def approximate_bound(
    matrix: ConstraintMatrix, delta_cal: float, delta_cost: float, M: float, D: int
) -> ImpossibilityBound:
    """Bound every generalized rate given slack in the constraints.

    M and D are caller assertions about the exact rational system the
    matrix discretizes; they cannot be recovered from floats. The bound is
    deliberately conservative, not tight.
    """
    if not matrix.distinct:
        raise ValueError("the two cost constraints are not distinct")
    if int(D) != D or D < 1:
        raise ValueError("D must be a positive integer")
    if delta_cal < 0.0 or delta_cost < 0.0:
        raise ValueError("slack parameters must be non-negative")
    if M <= 0.0:
        raise ValueError("M must be positive")
    D = int(D)
    try:
        L = 16.0 * M**3 * D**4
    except OverflowError:  # float ** and int-to-float raise where float * gives inf
        L = math.inf
    if not math.isfinite(L):
        raise ValueError(f"L is not finite ({L})")
    slack = max(
        2.0 * delta_cal / (1.0 - matrix.mu1),
        2.0 * delta_cal / (1.0 - matrix.mu2),
        delta_cost,
    )
    return ImpossibilityBound(M, D, L, delta_cal, delta_cost, L * slack)
