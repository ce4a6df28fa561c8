import json
from pathlib import Path

import pytest

from calparity.cli import main
from calparity.cost import CostSpec, cost
from calparity.metrics import rate_point
from calparity.parity import InterpolationPlan, compute_alpha, mixture_rate_point
from calparity.cost import trivial_cost
from calparity.scene import build_scene
from conftest import make_group, random_group

EXACT = 1e-12

GOLDEN_MIXED = Path(__file__).parent / "golden" / "inputs" / "mixed.csv"


def trivial_group(gid, mu, n=20):
    n_pos = int(round(mu * n))
    labels = [1] * n_pos + [0] * (n - n_pos)
    return make_group([n_pos / n] * n, labels, gid=gid)


class TestBuildScene:
    def test_trivial_classifiers_sit_on_the_diagonal(self):
        g1 = trivial_group("A", 0.25)
        g2 = trivial_group("B", 0.5)
        specs = {"A": CostSpec(1.0, 1.0), "B": CostSpec(1.0, 1.0)}
        scene = build_scene([g1, g2], specs)
        for point in scene.points:
            assert point.fp + point.fn == pytest.approx(1.0, abs=EXACT)
        assert (scene.diagonal.x0, scene.diagonal.y0) == (0.0, 1.0)
        assert (scene.diagonal.x1, scene.diagonal.y1) == (1.0, 0.0)

    def test_perfect_classifiers_at_the_origin(self):
        g1 = make_group([0.0, 0.0, 1.0], [0, 0, 1], gid="A")
        g2 = make_group([0.0, 1.0], [0, 1], gid="B")
        specs = {"A": CostSpec(1.0, 1.0), "B": CostSpec(1.0, 1.0)}
        scene = build_scene([g1, g2], specs)
        for point in scene.points:
            assert (point.fp, point.fn) == (0.0, 0.0)
        for _, seg in scene.calibrated_lines:
            assert (seg.x0, seg.y0) == (0.0, 0.0)

    def test_calibrated_line_slopes(self, rng):
        groups = [random_group(rng, gid=f"G{i}") for i in range(2)]
        specs = {g.group_id: CostSpec(1.0, 2.0) for g in groups}
        scene = build_scene(groups, specs)
        for gid, seg in scene.calibrated_lines:
            mu = next(g.base_rate for g in groups if g.group_id == gid)
            slope = (seg.y1 - seg.y0) / (seg.x1 - seg.x0)
            assert slope == pytest.approx((1 - mu) / mu, abs=EXACT)

    def test_level_curve_passes_through_reference_cost(self, rng):
        groups = [random_group(rng, gid=f"G{i}") for i in range(2)]
        specs = {g.group_id: CostSpec(1.0, 1.0) for g in groups}
        scene = build_scene(groups, specs)
        reference = max(cost(rate_point(g), specs[g.group_id]) for g in groups)
        assert len(scene.level_curves) == 1  # shared spec deduplicates
        spec, level, seg = scene.level_curves[0]
        assert level == reference
        for x, y in ((seg.x0, seg.y0), (seg.x1, seg.y1)):
            assert abs(spec.a * x + spec.b * y - level) <= EXACT

    def test_postprocessed_pair_shares_the_curve(self):
        # After equal-cost post-processing, both groups' points lie on one
        # level curve and on their own calibrated lines. Both inputs are
        # exactly calibrated in-sample (atom fractions equal scores).
        spec = CostSpec(1.0, 1.0)
        g1 = make_group(
            [0.4] * 5 + [0.6] * 5, [1, 1, 0, 0, 0] + [1, 1, 1, 0, 0], gid="A"
        )
        g2 = make_group(
            [0.2] * 5 + [0.8] * 5, [1, 0, 0, 0, 0] + [1, 1, 1, 1, 0], gid="B"
        )
        c1 = cost(rate_point(g1), spec)
        c2 = cost(rate_point(g2), spec)
        alpha = compute_alpha(c1, c2, trivial_cost(g2.base_rate, spec))
        plan = InterpolationPlan(alpha, g2.base_rate)
        derived = mixture_rate_point(g2, plan)
        scene = build_scene(
            [g1, g2], {"A": spec, "B": spec}, extra_points=[("derived", derived, "B")]
        )
        spec_out, level, seg = scene.level_curves[0]
        for point in scene.points:
            if point.label in ("derived",) or point.group == "A":
                assert spec_out.a * point.fp + spec_out.b * point.fn == pytest.approx(
                    level, abs=EXACT
                )
        # The derived point stays on B's calibrated line.
        mu2 = g2.base_rate
        assert derived.c_fn == pytest.approx((1 - mu2) / mu2 * derived.c_fp, abs=EXACT)

    def test_distinct_specs_emit_two_curves(self, rng):
        groups = [random_group(rng, gid=f"G{i}") for i in range(2)]
        specs = {"G0": CostSpec(1.0, 0.0), "G1": CostSpec(0.0, 1.0)}
        scene = build_scene(groups, specs)
        assert len(scene.level_curves) == 2

    def test_all_coordinates_inside_unit_square(self, rng):
        for _ in range(20):
            groups = [random_group(rng, gid=f"G{i}") for i in range(2)]
            specs = {g.group_id: CostSpec(1.0, 3.0) for g in groups}
            scene = build_scene(groups, specs)
            coords = [(p.fp, p.fn) for p in scene.points]
            for _, seg in scene.calibrated_lines:
                coords += [(seg.x0, seg.y0), (seg.x1, seg.y1)]
            for _, _, seg in scene.level_curves:
                coords += [(seg.x0, seg.y0), (seg.x1, seg.y1)]
            for x, y in coords:
                assert -EXACT <= x <= 1 + EXACT and -EXACT <= y <= 1 + EXACT


def test_plot_data_document_is_stable(capsys):
    argv = ["plot-data", "--input", str(GOLDEN_MIXED), "--cost", "2,1,2,1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert list(doc) == ["points", "lines", "level_curves", "diagonal"]
    assert doc["level_curves"]
    assert all(list(p) == ["label", "group", "fp", "fn"] for p in doc["points"])
    assert all(list(line) == ["group", "x0", "y0", "x1", "y1"] for line in doc["lines"])
    assert all(list(c) == ["a", "b", "c", "x0", "y0", "x1", "y1"] for c in doc["level_curves"])
    assert list(doc["diagonal"]) == ["x0", "y0", "x1", "y1"]
