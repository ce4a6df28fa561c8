"""Linear cost functions over generalized error rates and their geometry.

A cost function charges a group ``a * c_fp + b * c_fn`` with non-negative
weights, at least one of them positive. Level sets of such costs are
negatively sloped segments in the FP/FN unit square; the perfectly
calibrated classifiers of a group with base rate mu sit on the segment from
the origin to (mu, 1 - mu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .metrics import SAME_ENDPOINT_TOL, RatePoint, _snap


@dataclass(frozen=True)
class CostSpec:
    """Weights on the generalized false-positive and false-negative rates."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"cost weights must be finite, got ({self.a}, {self.b})")
        if self.a < 0.0 or self.b < 0.0:
            raise ValueError("cost weights must be non-negative")
        if self.a + self.b <= 0.0:
            raise ValueError("at least one cost weight must be positive")


@dataclass(frozen=True)
class CostPair:
    """One cost function per group, defining an equal-cost constraint."""

    spec_1: CostSpec
    spec_2: CostSpec


@dataclass(frozen=True)
class Segment:
    """A line segment in the FP/FN plane."""

    x0: float
    y0: float
    x1: float
    y1: float


def _require_base_rate(mu: float) -> None:
    if not 0.0 < mu < 1.0:
        raise ValueError(f"base rate {mu} must lie strictly inside (0, 1)")


def cost(point: RatePoint, spec: CostSpec) -> float:
    return spec.a * point.c_fp + spec.b * point.c_fn


def trivial_cost(mu: float, spec: CostSpec) -> float:
    """Cost of the constant-mu classifier, whose rate point is (mu, 1 - mu).

    This is the maximum cost over all perfectly calibrated classifiers for
    a group with base rate mu.
    """
    _require_base_rate(mu)
    return cost(RatePoint(mu, 1.0 - mu), spec)


def weighted_cost_spec(r_fp: float, r_fn: float, mu: float) -> CostSpec:
    """Coefficient form of the per-sample cost r_fp*h*(1-y) + r_fn*(1-h)*y.

    Taking the expectation over a group with base rate mu gives
    r_fp*(1-mu)*c_fp + r_fn*mu*c_fn, so the resolved weights are
    (r_fp*(1-mu), r_fn*mu).
    """
    if r_fp < 0.0 or r_fn < 0.0:
        raise ValueError("per-sample weights must be non-negative")
    if r_fp + r_fn <= 0.0:
        raise ValueError("at least one per-sample weight must be positive")
    _require_base_rate(mu)
    return CostSpec(r_fp * (1.0 - mu), r_fn * mu)


def level_curve(spec: CostSpec, c: float) -> tuple[tuple[float, float], ...]:
    """Intersection of {a*fp + b*fn = c} with the unit square.

    Returns zero, one, or two endpoints: an empty tuple when the level set
    misses the square, a single point when it only touches a corner, and
    the segment endpoints otherwise. A coordinate within ``COORD_SLACK``
    outside [0, 1] is snapped onto it, as a ``RatePoint``'s is. Values
    inside stay put, so beyond rounding only a snapped endpoint lies off
    the level set, by at most the cost weight times ``COORD_SLACK``.
    """
    if c < 0.0:
        raise ValueError("cost level must be non-negative")
    a, b = spec.a, spec.b
    if a == 0.0:
        y = _snap(c / b)
        return (((0.0, y), (1.0, y)) if 0.0 <= y <= 1.0 else ())
    if b == 0.0:
        x = _snap(c / a)
        return (((x, 0.0), (x, 1.0)) if 0.0 <= x <= 1.0 else ())
    candidates = [
        (0.0, c / b),
        (1.0, (c - a) / b),
        (c / a, 0.0),
        ((c - b) / a, 1.0),
    ]
    points: list[tuple[float, float]] = []
    for x, y in candidates:
        x, y = _snap(x), _snap(y)
        if 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0:
            if all(abs(x - px) > SAME_ENDPOINT_TOL or abs(y - py) > SAME_ENDPOINT_TOL for px, py in points):
                points.append((x, y))
    points.sort()  # a snapped corner beside its edge's own endpoint makes three points: the outermost two span the rest
    return (points[0], points[-1]) if len(points) > 1 else tuple(points)


def calibrated_line(mu: float) -> Segment:
    """Segment of perfectly calibrated classifiers: (0,0) to (mu, 1-mu).

    Along it fn = ((1 - mu) / mu) * fp; the upper endpoint is the trivial
    classifier on the fp + fn = 1 diagonal.
    """
    _require_base_rate(mu)
    return Segment(0.0, 0.0, mu, 1.0 - mu)
