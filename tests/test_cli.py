import argparse
import copy
import csv
import json
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

from calparity import cli, metrics
from calparity.cli import _emit, build_parser, main
from calparity.dataset import load_csv, write_csv
from conftest import make_group

EXACT = 1e-12

GOLDEN_MIXED = Path(__file__).parent / "golden" / "inputs" / "mixed.csv"

BINS_BOUND = "fixed-width binning needs 1 <= bins <= 2**53"

DIAGNOSE_ARGS = [
    "--cost", "1,1,1,1", "--cost2", "1,2,2,1", "--delta-cal", "0.05", "--delta-cost", "0.05",
    "--matrix-max", "2", "--denominator", "12",
]  # fmt: skip


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_fixture(tmp_path, groups, name="input.csv"):
    path = tmp_path / name
    write_csv(groups, path)
    return path


def feasible_pair():
    # A is costlier under the symmetric spec; B leaves interpolation room.
    g1 = make_group([0.6, 0.6, 0.7, 0.7], [0, 0, 1, 1], gid="A")
    g2 = make_group([0.2, 0.2, 0.9, 0.9], [0, 0, 1, 1], gid="B")
    return g1, g2


class TestStats:
    def test_report_schema(self, tmp_path, capsys):
        path = write_fixture(tmp_path, feasible_pair())
        code, out, _ = run(capsys, "stats", "--input", str(path))
        assert code == 0
        doc = json.loads(out)
        assert [g["group"] for g in doc["groups"]] == ["A", "B"]
        entry = doc["groups"][0]
        assert set(entry) == {
            "group",
            "n",
            "base_rate",
            "rates",
            "analytic_rates",
            "calibration",
            "linearity_residual",
        }
        assert set(entry["rates"]) == {"fp", "fn"}

    def test_perfect_classifier_has_zero_rates(self, tmp_path, capsys):
        g = make_group([0.0, 0.0, 1.0], [0, 0, 1], gid="A")
        path = write_fixture(tmp_path, [g])
        code, out, _ = run(capsys, "stats", "--input", str(path))
        assert code == 0
        entry = json.loads(out)["groups"][0]
        assert entry["rates"] == {"fp": 0.0, "fn": 0.0}
        assert entry["calibration"]["gap"] == 0.0

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_fixture(tmp_path, feasible_pair())
        _, first, _ = run(capsys, "stats", "--input", str(path))
        _, second, _ = run(capsys, "stats", "--input", str(path))
        assert first == second

    def test_fixed_binning_flag(self, tmp_path, capsys):
        path = write_fixture(tmp_path, feasible_pair())
        code, out, _ = run(capsys, "stats", "--input", str(path), "--binning", "fixed:5")
        assert code == 0 and json.loads(out)["groups"]

    def test_bin_count_beyond_the_atoms(self, tmp_path, capsys):
        # Every atom gets its own bin, and no array grows with the bin count.
        path = write_fixture(tmp_path, feasible_pair())
        code, out, _ = run(capsys, "stats", "--input", str(path), "--binning", "fixed:100000000000")
        assert code == 0
        _, exact, _ = run(capsys, "stats", "--input", str(path))
        assert json.loads(out) == json.loads(exact)

    @pytest.mark.parametrize(
        "bins, message",
        [
            (str(2**53 + 1), BINS_BOUND),
            ("9" * 400, BINS_BOUND),
            ("0", BINS_BOUND),
            ("x", "binning must be 'exact' or 'fixed:B', got 'fixed:x'"),
            ("", "binning must be 'exact' or 'fixed:B', got 'fixed:'"),
            ("1.5", "binning must be 'exact' or 'fixed:B', got 'fixed:1.5'"),
        ],
        ids=["2**53+1", "400-digits", "zero", "not-a-number", "empty", "fraction"],
    )
    def test_bin_count_past_float_exactness(self, tmp_path, capsys, bins, message):
        # Counts out of range get the library's bound at either end; text
        # that is no count gets the flag's format.
        path = write_fixture(tmp_path, feasible_pair())
        code, out, err = run(capsys, "stats", "--input", str(path), "--binning", f"fixed:{bins}")
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "stats", "--input", str(tmp_path / "nope.csv"))
        assert code == 1 and "error" in err

    def test_bad_row_reports_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("group,score,label\nA,0.2,0\nA,1.7,1\n", encoding="utf-8")
        code, _, err = run(capsys, "stats", "--input", str(path))
        assert code == 1 and "row 3" in err

    def test_field_over_csv_limit_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text(f"group,score,label\nA,0.2,0\n{'B' * 140_000},0.5,1\n", encoding="ascii")
        code, out, err = run(capsys, "stats", "--input", str(path))
        assert code == 1 and out == ""
        assert err == f"error: row 3: field larger than field limit ({csv.field_size_limit()})\n"


class TestPostprocessCalibrated:
    def test_equalizes_costs(self, tmp_path, capsys):
        path = write_fixture(tmp_path, feasible_pair())
        out_csv = tmp_path / "out.csv"
        code, out, _ = run(
            capsys,
            "postprocess-calibrated",
            "--input", str(path),
            "--cost", "1,1,1,1",
            "--output", str(out_csv),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "ok"
        assert doc["group1"] == "A" and not doc["swapped"]
        assert abs(doc["post"]["g2_cost"] - doc["pre"]["g1_cost"]) <= 1e-11
        assert doc["post"]["g2_gap"] <= doc["pre"]["g2_gap"] + EXACT
        # Deterministic mode passes scores through; the plan is the output.
        assert load_csv(out_csv)[1].scores.tolist() == [0.2, 0.2, 0.9, 0.9]

    def test_infeasible_exits_two(self, tmp_path, capsys):
        # G1's pure-FP cost of 0.8 exceeds G2's trivial ceiling of 0.3.
        g1 = make_group([0.8, 0.8, 0.9], [0, 0, 1], gid="A")
        g2 = make_group([0.3] * 10, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0], gid="B")
        path = write_fixture(tmp_path, [g1, g2])
        code, out, _ = run(
            capsys, "postprocess-calibrated", "--input", str(path), "--cost", "1,0,1,0"
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "infeasible"
        assert doc["feasibility"]["reason"] == "exceeds_trivial"

    def test_equal_costs_leave_csv_untouched(self, tmp_path, capsys):
        samples = ([0.25, 0.25, 0.75, 0.75], [0, 0, 1, 1])
        g1 = make_group(*samples, gid="A")
        g2 = make_group(*samples, gid="B")
        path = write_fixture(tmp_path, [g1, g2])
        out_csv = tmp_path / "out.csv"
        code, out, _ = run(
            capsys,
            "postprocess-calibrated",
            "--input", str(path),
            "--cost", "1,1,1,1",
            "--output", str(out_csv),
        )
        assert code == 0
        assert json.loads(out)["alpha"] == 0.0
        assert out_csv.read_bytes() == path.read_bytes()

    def test_role_swap_recorded(self, tmp_path, capsys):
        g1, g2 = feasible_pair()
        path = write_fixture(tmp_path, [g1, g2])
        code, out, _ = run(
            capsys,
            "postprocess-calibrated",
            "--input", str(path),
            "--group1", "B",
            "--cost", "1,1,1,1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["swapped"] is True
        assert doc["group1"] == "A" and doc["group2"] == "B"

    def test_monte_carlo_mask_and_determinism(self, tmp_path, capsys):
        path = write_fixture(tmp_path, feasible_pair())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "postprocess-calibrated",
            "--input", str(path),
            "--cost", "1,1,1,1",
            "--mode", "mc",
            "--seed", "7",
        ]
        code, first, _ = run(capsys, *args, "--output", str(out1))
        assert code == 0
        _, second, _ = run(capsys, *args, "--output", str(out2))
        assert first == second
        assert out1.read_bytes() == out2.read_bytes()
        with open(out1, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["group", "score", "label", "withheld"]
        a_rows = [r for r in rows[1:] if r[0] == "A"]
        assert all(r[3] == "0" for r in a_rows)
        doc = json.loads(first)
        assert "realized" in doc and 0.0 <= doc["realized"]["withheld_fraction"] <= 1.0

    def test_mc_requires_seed(self, tmp_path, capsys):
        path = write_fixture(tmp_path, feasible_pair())
        code, _, err = run(
            capsys,
            "postprocess-calibrated",
            "--input", str(path),
            "--cost", "1,1,1,1",
            "--mode", "mc",
        )
        assert code == 1 and "seed" in err

    def test_weighted_cost_form(self, tmp_path, capsys):
        path = write_fixture(tmp_path, feasible_pair())
        code, out, _ = run(
            capsys,
            "postprocess-calibrated",
            "--input", str(path),
            "--weighted-cost", "1,3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] in ("ok", "already_trivial")

    def test_exactly_one_cost_form(self, tmp_path, capsys):
        path = write_fixture(tmp_path, feasible_pair())
        code, _, err = run(capsys, "postprocess-calibrated", "--input", str(path))
        assert code == 1 and "exactly one" in err
        code, _, err = run(
            capsys,
            "postprocess-calibrated",
            "--input", str(path),
            "--cost", "1,1,1,1",
            "--weighted-cost", "1,1",
        )
        assert code == 1 and "exactly one" in err

    def test_already_trivial_group2(self, tmp_path, capsys):
        # B is its own trivial classifier and A's pure-FP cost matches it.
        g1 = make_group([0.5, 0.5, 0.9], [0, 0, 1], gid="A")
        g2 = make_group([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0], gid="B")
        path = write_fixture(tmp_path, [g1, g2])
        code, out, _ = run(
            capsys, "postprocess-calibrated", "--input", str(path), "--cost", "1,0,1,0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "already_trivial"
        assert doc["alpha"] is None


class TestPostprocessEO:
    def test_identical_groups_zero_flips(self, tmp_path, capsys):
        scores = [0.2, 0.2, 0.2, 0.6, 0.8, 0.8, 0.8, 0.4]
        labels = [0, 0, 0, 0, 1, 1, 1, 1]
        path = write_fixture(
            tmp_path, [make_group(scores, labels, "A"), make_group(scores, labels, "B")]
        )
        code, out, _ = run(capsys, "postprocess-eo", "--input", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "optimal"
        for flips in doc["plan"].values():
            assert flips == {"q_n2p": 0.0, "q_p2n": 0.0}

    def test_rates_matched_and_damage_reported(self, tmp_path, capsys):
        g1 = make_group([0.1] * 4 + [0.9] * 4, [1, 0, 0, 0, 1, 1, 1, 0], gid="A")
        g2 = make_group([0.3] * 5 + [0.7] * 5, [1, 1, 0, 0, 0, 1, 1, 1, 1, 0], gid="B")
        path = write_fixture(tmp_path, [g1, g2])
        out_csv = tmp_path / "flipped.csv"
        code, out, _ = run(
            capsys, "postprocess-eo", "--input", str(path), "--output", str(out_csv)
        )
        assert code == 0
        doc = json.loads(out)
        rates = list(doc["rates"].values())
        assert abs(rates[0]["fp"] - rates[1]["fp"]) <= 1e-9
        assert abs(rates[0]["fn"] - rates[1]["fn"]) <= 1e-9
        assert set(doc["calibration_damage"]) == {"A", "B"}
        flipped = load_csv(out_csv)
        assert [g.group_id for g in flipped] == ["A", "B"]

    def test_flipping_calibrated_input_reports_damage(self, tmp_path, capsys):
        # Exactly calibrated groups with different geometry force flips.
        g1 = make_group([0.2] * 5 + [0.8] * 5, [1, 0, 0, 0, 0, 1, 1, 1, 1, 0], gid="A")
        g2 = make_group(
            [0.4] * 5 + [0.6] * 5, [1, 1, 0, 0, 0, 1, 1, 1, 0, 0], gid="B"
        )
        path = write_fixture(tmp_path, [g1, g2])
        code, out, _ = run(capsys, "postprocess-eo", "--input", str(path))
        assert code == 0
        doc = json.loads(out)
        flips = doc["plan"]
        if any(f["q_n2p"] > 0 or f["q_p2n"] > 0 for f in flips.values()):
            assert max(doc["calibration_damage"].values()) > 0.0


class TestDiagnose:
    def perfect_fixture(self, tmp_path):
        g1 = make_group([1.0, 0.0, 0.0], [1, 0, 0], gid="A")
        g2 = make_group([1.0, 0.0], [1, 0], gid="B")
        return write_fixture(tmp_path, [g1, g2])

    def test_perfect_classifiers_satisfy(self, tmp_path, capsys):
        path = self.perfect_fixture(tmp_path)
        code, out, _ = run(
            capsys,
            "diagnose",
            "--input", str(path),
            "--cost", "1,0,1,0",
            "--cost2", "0,1,0,1",
            "--delta-cal", "0",
            "--delta-cost", "0",
            "--matrix-max", "1",
            "--denominator", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"]["satisfied"] is True
        assert doc["bound"]["L"] == 256.0
        assert doc["bound"]["rate_bound"] == 0.0
        assert doc["rate_bound_respected"] is True

    def test_trivial_classifiers_violate(self, tmp_path, capsys):
        g1 = make_group([0.25] * 4, [1, 0, 0, 0], gid="A")
        g2 = make_group([0.5] * 4, [1, 1, 0, 0], gid="B")
        path = write_fixture(tmp_path, [g1, g2])
        code, out, _ = run(
            capsys,
            "diagnose",
            "--input", str(path),
            "--cost", "1,0,1,0",
            "--cost2", "0,1,0,1",
            "--delta-cal", "0.001",
            "--delta-cost", "0.001",
            "--matrix-max", "1",
            "--denominator", "3",
        )
        assert code == 0
        assert json.loads(out)["exact"]["satisfied"] is False

    def test_non_distinct_constraints(self, tmp_path, capsys):
        path = self.perfect_fixture(tmp_path)
        code, _, err = run(
            capsys,
            "diagnose",
            "--input", str(path),
            "--cost", "1,0,1,0",
            "--cost2", "1,0,1,0",
            "--delta-cal", "0",
            "--delta-cost", "0",
            "--matrix-max", "1",
            "--denominator", "2",
        )
        assert code == 1 and "distinct" in err

    def test_sums_each_group_once(self, capsys, monkeypatch):
        # Count rate_point calls at every module that imported it by name.
        calls, original = [], metrics.rate_point

        def counted(g):
            calls.append(g.group_id)
            return original(g)

        for name, module in list(sys.modules.items()):
            if name.startswith("calparity") and getattr(module, "rate_point", None) is original:
                monkeypatch.setattr(module, "rate_point", counted)
        code, _, _ = run(
            capsys, "diagnose", "--input", str(GOLDEN_MIXED), "--cost", "1,0,1,0", "--cost2", "0,1,0,1",
            "--delta-cal", "0.05", "--delta-cost", "0.05", "--matrix-max", "2", "--denominator", "12",
        )
        assert code == 0
        assert calls == ["A", "B"]


class TestPlotData:
    def test_schema_and_stability(self, tmp_path, capsys):
        path = write_fixture(tmp_path, feasible_pair())
        args = ["plot-data", "--input", str(path), "--cost", "1,1,1,1"]
        code, first, _ = run(capsys, *args)
        assert code == 0
        _, second, _ = run(capsys, *args)
        assert first == second
        doc = json.loads(first)
        assert set(doc) == {"points", "lines", "level_curves", "diagonal"}
        assert len(doc["points"]) == 2
        assert len(doc["lines"]) == 2

    def test_reference_point_on_level_curve(self, tmp_path, capsys):
        path = write_fixture(tmp_path, feasible_pair())
        code, out, _ = run(
            capsys, "plot-data", "--input", str(path), "--cost", "1,1,1,1"
        )
        assert code == 0
        doc = json.loads(out)
        curve = doc["level_curves"][0]
        costs = [p["fp"] * curve["a"] + p["fn"] * curve["b"] for p in doc["points"]]
        assert max(costs) == pytest.approx(curve["c"], abs=1e-10)

    def test_writes_file(self, tmp_path, capsys):
        path = write_fixture(tmp_path, feasible_pair())
        out_json = tmp_path / "scene.json"
        code, out, _ = run(
            capsys,
            "plot-data",
            "--input", str(path),
            "--weighted-cost", "1,1",
            "--output", str(out_json),
        )
        assert code == 0 and out == ""
        assert json.loads(out_json.read_text())["points"]


class TestSynth:
    SPEC = json.dumps(
        {
            "groups": [
                {"id": "A", "n": 500, "family": "grid", "params": [0.1, 0.9, 9]},
                {"id": "B", "n": 400, "family": "point_mass", "params": [0.4], "seed": 5},
            ]
        }
    )

    def test_writes_loadable_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "synth.csv"
        code, out, _ = run(
            capsys, "synth", "--spec", self.SPEC, "--seed", "3", "--output", str(out_csv)
        )
        assert code == 0
        doc = json.loads(out)
        assert [g["id"] for g in doc["groups"]] == ["A", "B"]
        groups = load_csv(out_csv)
        assert [len(g) for g in groups] == [500, 400]

    def test_deterministic(self, tmp_path, capsys):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "synth", "--spec", self.SPEC, "--seed", "3", "--output", str(first))
        run(capsys, "synth", "--spec", self.SPEC, "--seed", "3", "--output", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_explicit_seed_matches_library(self, tmp_path, capsys):
        from calparity.dataset import SynthSpec, synth

        out_csv = tmp_path / "synth.csv"
        run(capsys, "synth", "--spec", self.SPEC, "--seed", "3", "--output", str(out_csv))
        b = next(g for g in load_csv(out_csv) if g.group_id == "B")
        direct = synth(SynthSpec(400, "point_mass", (0.4,), seed=5, group_id="B"))
        assert np.array_equal(b.labels, direct.labels)

    def test_spec_from_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(self.SPEC, encoding="utf-8")
        out_csv = tmp_path / "synth.csv"
        code, _, _ = run(
            capsys, "synth", "--spec", f"@{spec_path}", "--output", str(out_csv)
        )
        assert code == 0 and out_csv.exists()


GRID_BOUND = "synth spec groups[0]: grid takes (lo, hi, k) with 0 <= lo <= hi <= 1, 1 <= k <= 100000000"


class TestRejections:
    @pytest.mark.parametrize(
        "spec, field",
        [
            ("[1]", "'groups'"),
            ('{"groups": [{"id": "A", "n": 10, "family": "grid", "params": 5}]}', "groups[0].params"),
            ('{"groups": [{"id": "A", "family": "grid", "params": [0.1, 0.9, 3]}]}', "groups[0].n"),
        ],
    )
    def test_bad_synth_spec_names_the_field(self, tmp_path, capsys, spec, field):
        code, out, err = run(capsys, "synth", "--spec", spec, "--output", str(tmp_path / "s.csv"))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and field in err

    @pytest.mark.parametrize(
        "groups, message",
        [
            ([{"id": "A"}, {"id": "A", "n": 60}], "synth spec groups[1].id 'A' repeats groups[0].id"),
            ([{"id": " A"}], "synth spec groups[0].id ' A' has surrounding whitespace"),
            ([{"shift": float("nan")}], "synth spec groups[0]: miscalibration_shift must be finite, got nan"),
            (
                [{"family": "beta_grid", "params": [2, 2, 1e19]}],
                "synth spec groups[0]: beta_grid takes (a, b, bins) with a, b > 0, 1 <= bins <= 2**53",
            ),
            ([{"params": [0.1, 0.9, float("inf")]}], GRID_BOUND),
            ([{"params": [0.1, 0.9, 1e12]}], GRID_BOUND),
            ([{"n": 1e30}], f"synth spec groups[0]: n must lie in [1, 100000000], got {int(1e30)}"),
            ([{"n": float("inf")}], "synth spec groups[0].n has invalid value inf"),
            ([{"seed": float("inf")}], "synth spec groups[0].seed has invalid value inf"),
            ([{"seed": -1}], "synth spec groups[0]: seed must be non-negative, got -1"),
            (
                [{"family": "beta_grid", "params": [1e400, 2, 20]}],
                "synth spec groups[0]: beta_grid takes finite a and b, got (inf, 2.0, 20.0)",
            ),
            (
                [{"family": "beta_grid", "params": [2, 1e400, 20]}],
                "synth spec groups[0]: beta_grid takes finite a and b, got (2.0, inf, 20.0)",
            ),
            (
                [{"family": "beta_grid", "params": [2, 4, 20.5]}],
                "synth spec groups[0]: beta_grid bins must be a whole number, got 20.5",
            ),
            ([{"params": [0.1, 0.9, 9.7]}], "synth spec groups[0]: grid k must be a whole number, got 9.7"),
            ([{"params": [0.1, 0.9, True]}], "synth spec groups[0].params has invalid value [0.1, 0.9, True]"),
            ([{"params": [0.1, 0.9, "3"]}], "synth spec groups[0].params has invalid value [0.1, 0.9, '3']"),
            ([{"shift": "0.1"}], "synth spec groups[0].shift has invalid value '0.1'"),
            ([{"shift": True}], "synth spec groups[0].shift has invalid value True"),
            ([{"n": 3.9}], "synth spec groups[0].n has invalid value 3.9"),
            ([{"n": True}], "synth spec groups[0].n has invalid value True"),
            ([{"n": "3"}], "synth spec groups[0].n has invalid value '3'"),
            ([{"seed": 2.5}], "synth spec groups[0].seed has invalid value 2.5"),
            ([{"seed": True}], "synth spec groups[0].seed has invalid value True"),
        ],
        ids=["repeated-id", "padded-id", "nan-shift", "huge-bins", "inf-k", "huge-k", "huge-n", "inf-n",
             "inf-seed", "negative-seed", "inf-a", "inf-b", "fractional-bins", "fractional-k", "bool-k",
             "string-param", "string-shift", "bool-shift", "fractional-n",
             "bool-n", "string-n", "fractional-seed", "bool-seed"],
    )
    def test_synth_spec_must_read_back(self, tmp_path, capsys, groups, message):
        base = {"id": "A", "n": 50, "family": "grid", "params": [0.1, 0.9, 3]}
        spec = json.dumps({"groups": [{**base, **g} for g in groups]})
        out_csv = tmp_path / "s.csv"
        code, out, err = run(capsys, "synth", "--spec", spec, "--output", str(out_csv))
        assert code == 1 and out == "" and not out_csv.exists()
        assert err == f"error: {message}\n"

    def test_integral_floats_are_whole_numbers(self, tmp_path, capsys):
        # The atoms-200k bench spec gives bins as 1e6.
        written = []
        for n, seed, bins in [(60, 4, 10**6), (60.0, 4.0, 1e6)]:
            spec = {"groups": [{"id": "A", "n": n, "seed": seed, "family": "beta_grid", "params": [2, 4, bins]}]}
            out_csv = tmp_path / f"{len(written)}.csv"
            code, out, err = run(capsys, "synth", "--spec", json.dumps(spec), "--output", str(out_csv))
            assert code == 0 and err == ""
            assert json.loads(out)["groups"][0]["n"] == 60 and '"seed": 4,' in out
            written.append(out_csv.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "command, seed",
        [
            (("synth", "--spec", '{"groups": [{"id": "A", "n": 5, "family": "grid", "params": [0, 1, 3]}]}'), "-1"),
            (("postprocess-calibrated", "--input", str(GOLDEN_MIXED), "--weighted-cost", "1,3", "--mode", "mc"),
             "-1"),
            (("synth", "--spec", '{"groups": []}'), "1.5"),
        ],
        ids=["synth", "mc", "synth-fraction"],
    )  # fmt: skip
    def test_bad_seed_names_its_flag(self, tmp_path, capsys, command, seed):
        out_csv = tmp_path / "out.csv"
        code, out, err = run(capsys, *command, "--seed", seed, "--output", str(out_csv))
        assert code == 1 and out == "" and not out_csv.exists()
        assert err.startswith(f"usage: calparity {command[0]} ")
        assert err.splitlines()[-1] == (
            f"calparity {command[0]}: error: argument --seed: expected a non-negative integer, got '{seed}'"
        )

    def test_mc_output_reads_back(self, tmp_path, capsys):
        # The withheld column is read, checked and dropped, so stats audits the realized output.
        out_csv = tmp_path / "post.csv"
        code, out, _ = run(
            capsys, "postprocess-calibrated", "--input", str(GOLDEN_MIXED), "--weighted-cost", "1,3",
            "--mode", "mc", "--seed", "4", "--output", str(out_csv),
        )  # fmt: skip
        assert code == 0
        report = json.loads(out)
        code, out, err = run(capsys, "stats", "--input", str(out_csv))
        assert code == 0 and err == ""
        stats = {g["group"]: g for g in json.loads(out)["groups"]}
        assert [g["n"] for g in stats.values()] == [len(g) for g in load_csv(GOLDEN_MIXED)]
        assert stats[report["group2"]]["calibration"]["gap"] == report["realized"]["g2_gap"]

    def test_moment_rates_off_the_unit_square(self, tmp_path, capsys):
        # Miscalibrated: every score 0.5 but one positive in five.
        g = make_group([0.5] * 5, [1, 0, 0, 0, 0], gid="A")
        path = write_fixture(tmp_path, [g])
        code, out, _ = run(capsys, "stats", "--input", str(path))
        assert code == 0
        assert json.loads(out)["groups"][0]["analytic_rates"] == {"fp": 0.3125, "fn": 1.25}

    def test_non_finite_cost_weight(self, tmp_path, capsys):
        path = write_fixture(tmp_path, feasible_pair())
        code, out, err = run(
            capsys, "postprocess-calibrated", "--input", str(path), "--cost", "1,1,nan,1"
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "finite" in err

    @pytest.mark.parametrize("flag", ["--tol", "--delta-cal", "--delta-cost", "--matrix-max"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_diagnose_rejects_non_finite(self, tmp_path, capsys, flag, value):
        path = write_fixture(tmp_path, feasible_pair())
        flags = {"--tol": "1e-9", "--delta-cal": "0.05", "--delta-cost": "0.05", "--matrix-max": "2"}
        flags[flag] = value
        argv = ["diagnose", "--input", str(path), "--cost", "1,0,1,0", "--cost2", "0,1,0,1",
                "--denominator", "12"]
        for k, v in flags.items():
            argv += [k, v]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert f"argument {flag}: expected a finite number" in err

    def test_infinite_report_value_is_an_error(self, tmp_path, capsys):
        # 16 * M^3 * D^4 overflows to inf, which JSON cannot carry.
        path = write_fixture(tmp_path, feasible_pair())
        code, out, err = run(
            capsys, "diagnose", "--input", str(path), "--cost", "1,0,1,0", "--cost2", "0,1,0,1",
            "--delta-cal", "0.05", "--delta-cost", "0.05", "--matrix-max", "5e102",
            "--denominator", "12",
        )
        assert code == 1 and out == ""
        assert err == "error: L is not finite (inf)\n"

    @pytest.mark.parametrize("matrix_max,denominator", [("1e103", "12"), ("2", str(10**80))])
    def test_overflowing_bound_is_an_error(self, tmp_path, capsys, matrix_max, denominator):
        # Float ** raises OverflowError here instead of giving inf.
        path = write_fixture(tmp_path, feasible_pair())
        code, out, err = run(
            capsys, "diagnose", "--input", str(path), "--cost", "1,0,1,0", "--cost2", "0,1,0,1",
            "--delta-cal", "0.05", "--delta-cost", "0.05", "--matrix-max", matrix_max,
            "--denominator", denominator,
        )
        assert code == 1 and out == ""
        assert err == "error: L is not finite (inf)\n"

    def test_emit_leaves_report_and_checks_before_writing(self, tmp_path, capsys):
        per_bin = np.rec.fromarrays([[0.1, 0.123456789012345], [0.0, 1.0], [0.25, 0.75]],
                                    names="mean_score,positive_fraction,weight")  # fmt: skip
        report = {"a": [0.12345678901234567, {"b": 2 / 3}], "t": (1e12, -0.0), "bins": per_bin, "c": "x"}
        before = copy.deepcopy(report)
        _emit(report)
        assert json.loads(capsys.readouterr().out)["a"] == [0.123456789012, {"b": 0.666666666667}]
        # Pickles compare every float bit for bit, tuples as tuples and the record array whole.
        assert pickle.dumps(report) == pickle.dumps(before)
        # The NaN comes after the record array in dict order: still nothing is written.
        bad = {"bins": per_bin, "gap": float("nan")}
        path = tmp_path / "report.json"
        for target in (None, str(path)):
            with pytest.raises(ValueError, match=r"^gap is not finite \(nan\)$"):
                _emit(bad, target)
        assert capsys.readouterr().out == "" and not path.exists()


class TestSamples:
    """Only realizing a mixture, flipping scores and writing rows keep the rows."""

    @pytest.mark.parametrize(
        "argv, samples",
        [
            (["stats"], False),
            (["stats", "--binning", "fixed:5"], False),
            (["postprocess-calibrated", "--weighted-cost", "1,3"], False),
            (["postprocess-calibrated", "--weighted-cost", "1,3", "--output", "OUT"], True),
            (["postprocess-calibrated", "--weighted-cost", "1,3", "--mode", "mc", "--seed", "4"], True),
            (["postprocess-eo"], False),
            (["postprocess-eo", "--output", "OUT"], True),
            (["diagnose", *DIAGNOSE_ARGS], False),
            (["plot-data", "--weighted-cost", "1,3"], False),
        ],
    )
    def test_rows_are_loaded_only_where_read(self, tmp_path, capsys, monkeypatch, argv, samples):
        seen = []

        def recording_load(path, samples=True):
            seen.append(samples)
            return load_csv(path, samples=samples)

        monkeypatch.setattr(cli, "load_csv", recording_load)
        argv = [str(tmp_path / "out.csv") if a == "OUT" else a for a in argv]
        code, _, _ = run(capsys, *argv, "--input", str(GOLDEN_MIXED))
        assert code == 0 and seen == [samples]

    @pytest.mark.parametrize(
        "argv, gid",
        [
            (["postprocess-calibrated", "--weighted-cost", "1,3", "--mode", "mc", "--seed", "4"], "B"),
            (["postprocess-eo", "--output", "OUT"], "A"),
            (["postprocess-calibrated", "--weighted-cost", "1,3", "--output", "OUT"], "A"),
        ],
        ids=["realize_mixture", "flipped_scores", "write_csv"],
    )
    def test_rows_missing_is_one_line(self, tmp_path, capsys, monkeypatch, argv, gid):
        # Were the rows not loaded, each reader of them fails by name, not on None.
        monkeypatch.setattr(cli, "load_csv", lambda path, samples=True: load_csv(path, samples=False))
        out_csv = tmp_path / "out.csv"
        argv = [str(out_csv) if a == "OUT" else a for a in argv]
        code, out, err = run(capsys, *argv, "--input", str(GOLDEN_MIXED))
        assert (code, out) == (1, "") and not out_csv.exists()
        assert err == f"error: group {gid!r} was loaded without its samples, which this needs\n"


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_three_groups_rejected(self, tmp_path, capsys):
        groups = [make_group([0.2, 0.8], [0, 1], gid=g) for g in "ABC"]
        path = write_fixture(tmp_path, groups)
        code, _, err = run(
            capsys, "postprocess-calibrated", "--input", str(path), "--cost", "1,1,1,1"
        )
        assert code == 1 and "two groups" in err


class _ReadRecorder:
    """Forwards attribute reads to a namespace and records the names read."""

    def __init__(self, namespace):
        self._namespace, self.read = namespace, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._namespace, name)


# One value for every flag a subcommand may declare. Together they take each
# handler to its end on the golden mixed.csv, past every early return.
FLAG_VALUES = {
    "--input": str(GOLDEN_MIXED),
    "--group1": "A",
    "--binning": "fixed:5",
    "--cost": "1,2,1,2",
    "--weighted-cost": "1,3",
    "--mode": "mc",
    "--seed": "4",
    "--cost2": "0,1,0,1",
    "--tol": "1e-9",
    "--delta-cal": "0.05",
    "--delta-cost": "0.05",
    "--matrix-max": "2",
    "--denominator": "12",
    "--spec": json.dumps({"groups": [{"id": "A", "n": 20, "family": "grid", "params": [0.1, 0.9, 3]}]}),
}

SUBCOMMANDS = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_every_declared_flag_is_read(tmp_path, command):
    """A flag the handler never reads is accepted and then silently ignored."""
    flags = {a.option_strings[0]: a.dest for a in SUBCOMMANDS[command]._actions if a.dest != "help"}
    runs = [flags]
    if "--weighted-cost" in flags:  # each run gives exactly one cost form
        runs = [[f for f in flags if f != other] for other in ("--cost", "--weighted-cost")]
    read = set()
    for run_flags in runs:
        argv = [command]
        for flag in run_flags:
            argv += [flag, str(tmp_path / "out") if flag == "--output" else FLAG_VALUES[flag]]
        args = build_parser().parse_args(argv)
        recorder = _ReadRecorder(args)
        assert args.handler(recorder) == 0, argv
        read |= recorder.read
    assert sorted(f for f, dest in flags.items() if dest not in read) == []
