"""Generalized error rates, calibration gap, and calibrated-line diagnostics.

For a probabilistic classifier the generalized false-positive rate is the
mean score over true negatives, E[h(x) | y=0], and the generalized
false-negative rate is E[1 - h(x) | y=1]. For 0/1 scores these reduce to
the usual confusion-matrix rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import GroupData, pool_atoms

BINNING_MODES = ("exact-unique", "fixed-width")

# Tolerances. The paper's results are exact equalities: equal group costs,
# calibrated lines, a 4x4 constraint system whose only solution is the perfect
# pair, and the flip LP's equal rates. In floats each equality is judged within
# one of the values below, and no other module writes a tolerance (a test in
# tests/test_tolerances.py parses every module to hold that). Each value makes
# one decision; its docstring says what float noise it absorbs and which test
# pins it.

COORD_SLACK = 1e-9
"""Rate-coordinate slack: a rate, or a level-curve coordinate, this close outside [0, 1] is float noise.

``RatePoint`` and ``_snap`` move such a value onto [0, 1], and a
``RatePoint`` farther out is rejected. It absorbs rounding in arithmetic
on rates, such as a mixture's rates or a cost over a weight (~1e-16 in
practice). Pinned by ``test_metrics.py::TestRatePoint::test_slack_edges``
and ``test_cost.py::TestLevelCurve::test_slack_band``.
"""

SAME_ENDPOINT_TOL = 1e-12
"""Same endpoint: two level-curve candidates this close in both coordinates are one point.

A level set through a corner of the unit square yields that corner from
two edges, and their coordinates may differ by rounding. Pinned by
``test_cost.py::TestLevelCurve::test_corner_is_one_point``.
"""

PIVOT_TOL = 1e-12
"""Matrix pivot: ``_rank`` counts a singular value at or below it as zero.

It decides the flip LP's constraint rank and which column sets are bases,
and whether ``diagnose``'s two cost rows are distinct. It absorbs rounding
in coefficients built from decimals (``3 * 0.1 != 0.3``). Pinned by
``test_cli.py::TestDiagnose::test_proportional_cost_rows_are_not_distinct``
and ``test_eo.py::test_matches_row_reduction_enumeration``.
"""

RATE_MATCH_TOL = 1e-9
"""Matched rate: an optimal ``EOSolution``'s two groups may differ by at most this in FP and in FN rate.

It absorbs the least-squares error of the flip LP's vertex solve. Pinned by
``test_eo.py::TestSolveEO::test_solution_rates_match_within_tolerance``.
"""

VERTEX_TOL = 1e-9
"""Feasible vertex: a basic solution within it of the box [0, 1]^4, with residual within it, is a vertex.

Its coordinates within it of 0 or 1 are set onto the bound, so no ``-0.0``
or rounding noise reaches a plan. It absorbs the least-squares error of
the basic solve. Pinned by ``test_eo.py::test_matches_row_reduction_enumeration``
and ``test_eo.py::TestSolveEO::test_rates_match_across_groups``.
"""

OBJECTIVE_TIE_TOL = 1e-9
"""Tied objective: flip-LP vertices whose summed loss is within it of the least tie.

It absorbs rounding in the objective ``c @ q``, so noise never decides a
plan. Pinned by ``test_eo.py::test_matches_row_reduction_enumeration``.
"""

TIE_KEY_DECIMALS = 9
"""Tie key: tied flip vectors are compared after rounding to this many decimals, least first.

Rounding at the vertex tolerance's scale keeps noise in a solved
coordinate from ordering the vertices. Pinned by
``test_cli.py::TestPostprocessEO::test_ties_go_to_the_fewest_flips``.
"""

DIAGNOSE_TOL = 1e-9
"""Default of ``diagnose --tol``: each constraint residual within it counts as satisfied.

It absorbs rounding in rates and in the matrix rows. Pinned by
``test_cli.py::TestDiagnose::test_default_tol_absorbs_noise``.
"""


@dataclass(frozen=True)
class RatePoint:
    """A classifier's position in the generalized FP/FN plane."""

    c_fp: float
    c_fn: float

    def __post_init__(self) -> None:
        for name, v in (("c_fp", self.c_fp), ("c_fn", self.c_fn)):
            if not -COORD_SLACK <= v <= 1.0 + COORD_SLACK:
                raise ValueError(f"{name}={v} outside [0, 1]")
        object.__setattr__(self, "c_fp", _snap(float(self.c_fp)))
        object.__setattr__(self, "c_fn", _snap(float(self.c_fn)))


class MomentRates(NamedTuple):
    """Rates the moment formula predicts; off the unit square on miscalibrated data."""

    c_fp: float
    c_fn: float


def _snap(v: float) -> float:
    """Move float noise within COORD_SLACK of [0, 1] onto it; leave other values as they are."""
    return min(max(v, 0.0), 1.0) if -COORD_SLACK <= v <= 1.0 + COORD_SLACK else v


def _rank(a: np.ndarray) -> int:
    """The rank of ``a``, counting singular values at or below PIVOT_TOL as zero."""
    return int(np.linalg.matrix_rank(a, tol=PIVOT_TOL))


@dataclass(frozen=True, eq=False)
class CalibrationReport:
    """Score-weighted deviation between predicted and observed positives.

    ``per_bin`` is a read-only numpy record array, one row per occupied bin
    in ascending score order, with fields ``mean_score``,
    ``positive_fraction`` and ``weight``.
    """

    gap: float
    per_bin: np.recarray


def _pooled_gap(values: np.ndarray, mass: np.ndarray, positive_mass: np.ndarray) -> float:
    """Calibration gap of a score distribution given as weighted atoms.

    Atoms with equal values are merged first; the gap is then the sum over
    distinct values v of |positive mass at v - v * mass at v|, which is the
    weighted |positive fraction - v| with the division cancelled.
    """
    merged, mass, positive_mass = pool_atoms(values, mass, positive_mass)
    return float(np.abs(positive_mass - merged * mass).sum())


def _exact_mean(values: np.ndarray, counts: np.ndarray) -> float:
    """Mean of ``values`` in [0, 1] repeated ``counts`` times (whole, below 2**45 in all), the sum rounded once.

    Each value is an int64 mantissa of ``np.frexp`` times a power of two.
    Limbs of the mantissas, narrow enough that no sum overflows, times the
    counts are summed in int64 per run of equal exponent and the run sums
    added as Python ints: one ``int / int`` rounds the sum as ``fsum`` does.
    """
    mantissas, exponents = np.frexp(values)
    mantissas = np.ldexp(mantissas, 53).astype(np.int64)  # each value is mantissa * 2**(exponent - 53)
    counts = counts.astype(np.int64)
    size = int(counts.sum())
    width = 63 - size.bit_length()  # (2**width - 1) * size < 2**63
    lows = np.arange(0, 53, width)[:, None]  # each limb's lowest bit
    starts = np.append(0, np.flatnonzero(exponents[1:] != exponents[:-1]) + 1)
    sums = np.add.reduceat((mantissas >> lows & (1 << width) - 1) * counts, starts, axis=1)
    shifts = (lows + exponents[starts] + 1074).ravel().tolist()  # frexp's least exponent is -1073, at 5e-324
    return sum(s << shift for s, shift in zip(sums.ravel().tolist(), shifts)) / (1 << 1127) / size


def generalized_fp(g: GroupData) -> float:
    """Mean score among true negatives."""
    values, negatives, _ = g.atoms
    return _exact_mean(values, negatives)


def generalized_fn(g: GroupData) -> float:
    """Mean complement of the score among true positives."""
    values, _, positives = g.atoms
    return _exact_mean(1.0 - values, positives)


def rate_point(g: GroupData) -> RatePoint:
    return RatePoint(generalized_fp(g), generalized_fn(g))


def analytic_rates(g: GroupData) -> MomentRates:
    """Rates predicted from raw moments: (E[h] - E[h^2]) / (1 - mu) and / mu.

    The prediction is exact in population for perfectly calibrated scores;
    on miscalibrated data it is just the moment formula, not a rate, and
    may exceed 1. Float noise at the edges of [0, 1] is snapped as for
    RatePoint; other values are reported as computed.
    """
    values, negatives, positives = g.atoms
    weighted = values * (negatives + positives) / len(g)
    mu = g.base_rate
    spread = float(weighted.sum()) - float((weighted * values).sum())
    return MomentRates(_snap(spread / (1.0 - mu)), _snap(spread / mu))


def linearity_residual(g: GroupData) -> float:
    """|mu * c_fn - (1 - mu) * c_fp|, at most twice the calibration gap.

    On the atom table this is |sum(positives - v * count)| / n: the signed
    per-score calibration deviations, summed.
    """
    values, negatives, positives = g.atoms
    return abs(float((positives - values * (negatives + positives)).sum())) / len(g)


def calibration_gap(g: GroupData, binning: str = "exact-unique", bins: int = 10) -> CalibrationReport:
    """Empirical calibration gap under the requested binning.

    ``exact-unique`` treats each distinct score value as its own atom, which
    makes the gap definition exact for discrete score distributions.
    ``fixed-width`` pools scores into ``bins`` equal-width bins over [0, 1]
    (last bin right-closed) and compares each bin's mean score with its
    positive fraction; only occupied bins are reported. Either gap is
    ``_pooled_gap``'s, which pools two bins whose means round to one value.
    Both work on the
    atom table: a bin holds whole atoms, so the cost grows with the number
    of distinct scores and not with ``bins``. ``bins`` may be at most
    2**53, beyond which float bin indices are no longer exact.
    """
    if binning not in BINNING_MODES:
        raise ValueError(f"unknown binning {binning!r}; expected one of {BINNING_MODES}")
    values, negatives, positives = g.atoms
    counts = negatives + positives
    if binning == "fixed-width":
        if not 1 <= bins <= 2**53:
            raise ValueError("fixed-width binning needs 1 <= bins <= 2**53")
        _, score_sums, counts, positives = pool_atoms(
            np.minimum(np.floor(values * bins), bins - 1), values * counts, counts, positives
        )
        values = score_sums / counts
    weights = counts / len(g)
    per_bin = np.rec.fromarrays([values, positives / counts, weights], names="mean_score,positive_fraction,weight")
    per_bin.setflags(write=False)
    return CalibrationReport(_pooled_gap(values, weights, positives / len(g)), per_bin)
