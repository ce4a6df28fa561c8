"""FP/FN-plane plot geometry: classifier points, calibrated lines, level curves, the diagonal."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .cost import CostSpec, Segment, calibrated_line, cost, level_curve
from .dataset import GroupData
from .metrics import RatePoint, rate_point


@dataclass(frozen=True)
class ScenePoint:
    label: str
    group: str
    fp: float
    fn: float


@dataclass(frozen=True)
class PlaneScene:
    """Classifier points, calibrated lines, level curves, and the diagonal."""

    points: tuple[ScenePoint, ...]
    calibrated_lines: tuple[tuple[str, Segment], ...]
    level_curves: tuple[tuple[CostSpec, float, Segment], ...]
    diagonal: Segment


def _as_segment(points: tuple[tuple[float, float], ...]) -> Segment | None:
    if not points:
        return None
    if len(points) == 1:
        (x, y) = points[0]
        return Segment(x, y, x, y)
    (x0, y0), (x1, y1) = points
    return Segment(x0, y0, x1, y1)


def build_scene(
    groups: Sequence[GroupData],
    specs: Mapping[str, CostSpec],
    extra_points: Sequence[tuple[str, RatePoint, str]] = (),
) -> PlaneScene:
    """Compute each group's geometry plus the shared reference level curve.

    Every group contributes its observed rate point and its calibrated
    line. Level curves are drawn at the highest group cost (the reference
    group's level), one per distinct cost spec, so a shared spec yields the
    single curve both post-processed classifiers sit on.
    """
    observed = [rate_point(g) for g in groups]
    points = [ScenePoint("observed", g.group_id, rp.c_fp, rp.c_fn) for g, rp in zip(groups, observed)]
    points.extend(ScenePoint(label, gid, rp.c_fp, rp.c_fn) for label, rp, gid in extra_points)
    lines = tuple((g.group_id, calibrated_line(g.base_rate)) for g in groups)

    reference_cost = max(cost(rp, specs[g.group_id]) for g, rp in zip(groups, observed))
    curves: list[tuple[CostSpec, float, Segment]] = []
    seen: set[tuple[float, float, float]] = set()
    for g in groups:
        spec = specs[g.group_id]
        key = (spec.a, spec.b, reference_cost)
        if key in seen:
            continue
        seen.add(key)
        segment = _as_segment(level_curve(spec, reference_cost))
        if segment is not None:
            curves.append((spec, reference_cost, segment))

    return PlaneScene(tuple(points), lines, tuple(curves), Segment(0.0, 1.0, 1.0, 0.0))
