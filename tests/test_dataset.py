import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from calparity.dataset import CsvFormatError, GroupData, SynthSpec, load_csv, synth, write_csv
from calparity.metrics import calibration_gap


def _write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_single_group(self, tmp_path):
        path = _write(tmp_path, "group,score,label\nA,0.2,0\nA,0.8,1\n")
        (g,) = load_csv(path)
        assert g.group_id == "A"
        assert g.base_rate == 0.5
        assert list(g.scores) == [0.2, 0.8]
        assert list(g.labels) == [0, 1]

    def test_two_groups(self, tmp_path):
        # Every group needs both classes, so A carries a positive as well.
        path = _write(
            tmp_path, "group,score,label\nA,0.5,0\nA,0.6,1\nB,0.5,1\nB,0.1,0\n"
        )
        groups = load_csv(path)
        assert [g.group_id for g in groups] == ["A", "B"]
        assert groups[1].base_rate == 0.5

    def test_score_out_of_range(self, tmp_path):
        path = _write(tmp_path, "group,score,label\nA,1.2,0\n")
        with pytest.raises(CsvFormatError, match="row 2.*outside"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, "grp,score,label\nA,0.2,0\n")
        with pytest.raises(CsvFormatError, match="header"):
            load_csv(path)

    def test_extra_column(self, tmp_path):
        path = _write(tmp_path, "group,score,label\nA,0.2,0,extra\n")
        with pytest.raises(CsvFormatError, match="row 2.*columns"):
            load_csv(path)

    def test_non_binary_label(self, tmp_path):
        path = _write(tmp_path, "group,score,label\nA,0.2,2\n")
        with pytest.raises(CsvFormatError, match="row 2.*label"):
            load_csv(path)

    def test_unparseable_score_reports_row(self, tmp_path):
        path = _write(tmp_path, "group,score,label\nA,0.2,0\nA,oops,1\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            load_csv(path)

    def test_single_class_group(self, tmp_path):
        path = _write(tmp_path, "group,score,label\nA,0.2,0\nA,0.4,0\n")
        with pytest.raises(CsvFormatError, match="single class"):
            load_csv(path)

    def test_no_rows(self, tmp_path):
        path = _write(tmp_path, "group,score,label\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(path)

    def test_round_trip_bit_exact(self, tmp_path):
        scores = [0.1, 1 / 3, 0.7000000000000001, 1.0, 0.0]
        labels = [0, 1, 1, 1, 0]
        g = GroupData("A", np.array(scores), np.array(labels))
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        write_csv([g], first)
        (loaded,) = load_csv(first)
        assert np.array_equal(loaded.scores, g.scores)
        assert np.array_equal(loaded.labels, g.labels)
        write_csv([loaded], second)
        assert first.read_bytes() == second.read_bytes()

    def test_withheld_column(self, tmp_path):
        a = GroupData("A", np.array([0.25, 0.5]), np.array([0, 1]))
        b = GroupData("B, west", np.array([0.125, 1.0]), np.array([1, 0]))
        path = tmp_path / "out.csv"
        write_csv([a, b], path, {"B, west": np.array([True, False])})
        assert path.read_bytes() == (
            b"group,score,label,withheld\r\n"
            b"A,0.25,0,0\r\nA,0.5,1,0\r\n"
            b'"B, west",0.125,1,1\r\n"B, west",1.0,0,0\r\n'
        )


class TestGroupData:
    @pytest.mark.parametrize(
        "labels,expected", [([0, 1, 1, 0], 0.5), ([1, 1, 1, 0], 0.75)]
    )
    def test_base_rate(self, labels, expected):
        g = GroupData("g", np.full(len(labels), 0.5), np.array(labels))
        assert g.base_rate == expected

    def test_rejects_bad_scores(self):
        with pytest.raises(ValueError, match="outside"):
            GroupData("g", np.array([0.2, 1.5]), np.array([0, 1]))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="non-binary"):
            GroupData("g", np.array([0.2, 0.5]), np.array([0, 2]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no samples"):
            GroupData("g", np.array([]), np.array([]))

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="single class"):
            GroupData("g", np.array([0.2, 0.5]), np.array([1, 1]))

    def test_atom_table(self):
        g = GroupData("g", np.array([0.5, 0.1, 0.5, 0.5, 0.1]), np.array([1, 0, 0, 1, 1]))
        values, negatives, positives = g.atoms
        assert values.tolist() == [0.1, 0.5]
        assert negatives.tolist() == [1.0, 1.0]
        assert positives.tolist() == [1.0, 2.0]
        assert g.atoms is g.atoms
        with pytest.raises(ValueError):
            values[0] = 0.2

    def test_immutable_arrays(self):
        g = GroupData("g", np.array([0.2, 0.5]), np.array([0, 1]))
        with pytest.raises(ValueError):
            g.scores[0] = 0.9

    def test_samples_preserve_order(self):
        g = GroupData("g", np.array([0.9, 0.1, 0.5]), np.array([1, 0, 1]))
        assert g.scores.tolist() == [0.9, 0.1, 0.5]
        assert g.labels.tolist() == [1, 0, 1]

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=40).filter(lambda ls: 0 < sum(ls) < len(ls)))
    def test_base_rate_is_exact_label_mean(self, labels):
        g = GroupData("g", np.full(len(labels), 0.5), np.array(labels))
        assert g.base_rate == sum(labels) / len(labels)


class TestSynthCalibrated:
    def test_point_mass_concentration(self):
        g = synth(SynthSpec(10_000, "point_mass", (0.5,), seed=7))
        assert abs(g.base_rate - 0.5) <= 0.02
        assert np.all(g.scores == 0.5)

    def test_base_rate_tracks_score_mean(self):
        # Grid over {0.1, 0.2, ..., 0.5} has mean label probability 0.3.
        n = 10_000
        g = synth(SynthSpec(n, "grid", (0.1, 0.5, 5), seed=3))
        assert abs(g.base_rate - 0.3) <= 3 / np.sqrt(n)

    def test_grid_gap_shrinks(self):
        n = 10_000
        g = synth(SynthSpec(n, "grid", (0.1, 0.9, 9), seed=11))
        assert calibration_gap(g).gap <= 4 * np.sqrt(9 / n)

    def test_beta_grid_support_and_gap(self):
        n = 10_000
        bins = 20
        g = synth(SynthSpec(n, "beta_grid", (2.0, 5.0, bins), seed=5))
        midpoints = (np.arange(bins) + 0.5) / bins
        assert set(np.unique(g.scores)) <= set(midpoints)
        assert calibration_gap(g).gap <= 4 * np.sqrt(bins / n)

    def test_deterministic(self):
        spec = SynthSpec(500, "grid", (0.1, 0.9, 9), seed=42)
        a = synth(spec)
        b = synth(spec)
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.labels, b.labels)

    def test_degenerate_point_mass(self):
        with pytest.raises(ValueError, match="degenerate"):
            synth(SynthSpec(10, "point_mass", (0.0,)))


class TestSynthMiscalibrated:
    def test_gap_approaches_shift(self):
        n = 100_000
        spec = SynthSpec(n, "point_mass", (0.5,), miscalibration_shift=0.2, seed=1)
        g = synth(spec)
        assert abs(calibration_gap(g).gap - 0.2) <= 4 / np.sqrt(n)

    def test_zero_shift_matches_calibrated(self):
        # One seed fixes the scores and the uniform stream, so a shift moves
        # only the label threshold: the zero-shift (calibrated) labels are the
        # shifted ones minus the extra positives.
        spec = SynthSpec(200, "grid", (0.2, 0.8, 4), seed=9)
        a = synth(spec)
        b = synth(dataclasses.replace(spec, miscalibration_shift=0.1))
        assert np.array_equal(a.scores, b.scores)
        assert np.all(a.labels <= b.labels) and b.labels.sum() > a.labels.sum()

    def test_clamped_atom_gap(self):
        # Scores 0.5 and 0.9 with shift +0.2: label probabilities become
        # 0.7 and 1.0 (clamped), so the expected per-atom deviations are
        # 0.2 and 0.1 and the overall gap is their weight average, 0.15.
        n = 100_000
        spec = SynthSpec(n, "grid", (0.5, 0.9, 2), miscalibration_shift=0.2, seed=13)
        g = synth(spec)
        assert abs(calibration_gap(g).gap - 0.15) <= 4 / np.sqrt(n)

    def test_fully_clamped_distribution_is_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            synth(
                SynthSpec(100, "point_mass", (0.9,), miscalibration_shift=0.2, seed=2)
            )


class TestSynthSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, family="point_mass", params=(0.5,)),
            dict(n=10, family="unknown", params=(0.5,)),
            dict(n=10, family="point_mass", params=(1.5,)),
            dict(n=10, family="grid", params=(0.9, 0.1, 5)),
            dict(n=10, family="grid", params=(0.1, 0.9, 0)),
            dict(n=10, family="beta_grid", params=(0.0, 1.0, 5)),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SynthSpec(**kwargs)
