"""Cost-parity post-processing that preserves per-group calibration.

The reference group G1 keeps its classifier. The lower-cost group G2 is
degraded to match: with probability alpha a prediction is withheld and the
group's base rate is returned instead. Cost interpolates linearly in alpha
between the original classifier and the constant base-rate classifier, so

    alpha = (g1_cost - g2_cost) / (trivial2_cost - g2_cost)

equalizes the two group costs. The interpolation can only shrink the
calibration gap: the mixture's gap is (1 - alpha) times the original.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import CostSpec, _require_base_rate, cost
from .dataset import GroupData, _code_dtype
from .metrics import RatePoint, _pooled_gap, rate_point

REASON_OK = "ok"
REASON_COST_ORDER = "cost_order_violated"
REASON_EXCEEDS_TRIVIAL = "exceeds_trivial"

MODE_DETERMINISTIC = "deterministic_mixture"
MODE_MONTE_CARLO = "monte_carlo"


class InfeasibleError(ValueError):
    """The equal-cost target cannot be reached for this instance."""

    def __init__(self, verdict: "FeasibilityVerdict"):
        super().__init__(f"infeasible instance: {verdict.reason}")
        self.verdict = verdict


class AlreadyTrivialError(ValueError):
    """G2 already sits at its trivial cost, so alpha is undefined (0/0)."""


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    g1_cost: float
    g2_cost: float
    trivial2_cost: float
    reason: str


@dataclass(frozen=True)
class InterpolationPlan:
    """How to mix a group's classifier with its trivial classifier.

    ``deterministic_mixture`` carries the analytic distribution only, which
    is what every expectation-level guarantee is stated against.
    ``monte_carlo`` additionally fixes a seed so the per-sample withholding
    draws are reproducible.
    """

    alpha: float
    trivial_output: float
    mode: str = MODE_DETERMINISTIC
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1]")
        if not 0.0 < self.trivial_output < 1.0:
            raise ValueError(f"trivial output {self.trivial_output} outside (0, 1)")
        if self.mode not in (MODE_DETERMINISTIC, MODE_MONTE_CARLO):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_MONTE_CARLO and self.seed is None:
            raise ValueError("monte_carlo mode requires a seed")


@dataclass(frozen=True, eq=False)
class MixtureGroup:
    """One Monte Carlo draw of a plan: the realized group and its mask.

    ``withheld`` marks the samples whose prediction was replaced by the
    trivial output, as drawn, even where the original score already equals
    the trivial output. The realized group shares the original's labels;
    its bit table is the original's with the trivial output inserted where
    its bits sort, and a withheld row's code points at that entry.
    """

    realized: GroupData
    withheld: np.ndarray


def feasibility(g1_cost: float, g2_cost: float, trivial2_cost: float) -> FeasibilityVerdict:
    """Check g2_cost <= g1_cost <= trivial2_cost.

    The first inequality is the group-role convention (G1 is the costlier
    group); the second is the real feasibility boundary, since no
    calibrated classifier for G2 costs more than its trivial classifier.
    """
    for name, v in (("g1_cost", g1_cost), ("g2_cost", g2_cost), ("trivial2_cost", trivial2_cost)):
        if v < 0.0:
            raise ValueError(f"{name} must be non-negative, got {v}")
    if g1_cost < g2_cost:
        reason = REASON_COST_ORDER
    elif g1_cost > trivial2_cost:
        reason = REASON_EXCEEDS_TRIVIAL
    else:
        reason = REASON_OK
    return FeasibilityVerdict(reason == REASON_OK, g1_cost, g2_cost, trivial2_cost, reason)


def compute_alpha(g1_cost: float, g2_cost: float, trivial2_cost: float) -> float:
    """Interpolation weight that lifts G2's cost up to G1's."""
    verdict = feasibility(g1_cost, g2_cost, trivial2_cost)
    if not verdict.feasible:
        raise InfeasibleError(verdict)
    denom = trivial2_cost - g2_cost
    if denom <= 0.0:
        raise AlreadyTrivialError(
            "g2 already has trivial cost; alpha is undefined (0/0)"
        )
    return min(max((g1_cost - g2_cost) / denom, 0.0), 1.0)


def realize_mixture(g: GroupData, plan: InterpolationPlan) -> MixtureGroup:
    """Draw the withholding mask and realize the mixed rows as codes into the bit table plus the trivial output.

    The draws are one stream in row order, taken a ``write_rows`` chunk at
    a time: the whole-array ``rng.random(len(g)) < alpha``. The table stays
    in bit order, so its atoms need no sort unless the trivial output
    repeats a score.
    """
    from .writer import row_chunks

    if plan.mode != MODE_MONTE_CARLO:
        raise ValueError("a Monte Carlo draw requires a monte_carlo plan")
    table, codes, labels = g.rows()
    rng = np.random.default_rng(plan.seed)
    withheld = np.concatenate([rng.random(len(c)) < plan.alpha for _, c, _, _ in row_chunks(table, codes, labels)])
    at = int(np.searchsorted(table.view(np.uint64), np.float64(plan.trivial_output).view(np.uint64)))
    mixed = codes.astype(_code_dtype(len(table) + 1))
    mixed += codes >= at
    mixed[withheld] = at
    realized = GroupData._coded(g.group_id, np.insert(table, at, plan.trivial_output), mixed, labels)
    return MixtureGroup(realized, withheld)


def mixture_rate_point(g: GroupData, plan: InterpolationPlan) -> RatePoint:
    """Exact expected rates of the mixture, no sampling involved."""
    base = rate_point(g)
    a = plan.alpha
    mu = plan.trivial_output
    return RatePoint(
        (1.0 - a) * base.c_fp + a * mu,
        (1.0 - a) * base.c_fn + a * (1.0 - mu),
    )


def mixture_cost(g: GroupData, plan: InterpolationPlan, spec: CostSpec) -> float:
    """Cost of the mixture; interpolates the base and trivial costs linearly."""
    return cost(mixture_rate_point(g, plan), spec)


def mixture_calibration_gap(g: GroupData, plan: InterpolationPlan) -> float:
    """Exact-unique calibration gap of the mixture distribution.

    Every atom of the group keeps its conditional statistics at weight
    scaled by (1 - alpha). The withheld mass alpha sits at the trivial
    output with positive fraction equal to the group's label mean, pooled
    with any original atom there. When the trivial output is the group's
    base rate the pooled atom contributes a (1 - alpha)-scaled term as
    well, so the whole gap contracts by exactly (1 - alpha).
    """
    a = plan.alpha
    values, negatives, positives = g.atoms
    keep = (1.0 - a) / len(g)
    return _pooled_gap(
        np.append(values, plan.trivial_output),
        np.append((negatives + positives) * keep, a),
        np.append(positives * keep, a * g.base_rate),
    )


@dataclass(frozen=True)
class AuditVerdict:
    """Result of checking a claimed improvement against the cost-error bound."""

    flagged: bool
    fp_floor: float
    fn_floor: float


def optimality_audit(
    candidate: RatePoint, reference: RatePoint, mu: float, delta_cal: float
) -> AuditVerdict:
    """Flag rate claims the cost-error relation rules out.

    For classifiers calibrated within delta_cal whose cost is at least the
    reference cost, neither rate can undercut the reference by more than
    4*delta_cal/(1-mu) (FP) or 4*delta_cal/mu (FN). A candidate strictly
    below either floor while claiming both conditions is impossible.
    """
    if delta_cal < 0.0:
        raise ValueError("delta_cal must be non-negative")
    _require_base_rate(mu)
    fp_floor = reference.c_fp - 4.0 * delta_cal / (1.0 - mu)
    fn_floor = reference.c_fn - 4.0 * delta_cal / mu
    flagged = candidate.c_fp < fp_floor or candidate.c_fn < fn_floor
    return AuditVerdict(flagged, fp_floor, fn_floor)
