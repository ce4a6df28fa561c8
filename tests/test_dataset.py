import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calparity import dataset
from calparity.dataset import CsvFormatError, GroupData, load_csv
from calparity.metrics import analytic_rates, calibration_gap, linearity_residual, rate_point
from calparity.parity import MODE_MONTE_CARLO, InterpolationPlan, realize_mixture
from calparity.synthetic import SynthSpec, synth
from calparity.writer import write_csv


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

    def test_withheld_column_reads_back(self, tmp_path):
        path = _write(tmp_path, "group,score,label,withheld\nA,0.2,0,1\nA,0.8,1,0\n")
        for samples in (True, False):
            (g,) = load_csv(path, samples=samples)
            assert (g.group_id, len(g), g.base_rate) == ("A", 2, 0.5)
            assert g.atoms[0].tolist() == [0.2, 0.8]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("group,score,label,withheld\nA,0.2,0,1\nA,0.8,1,2\n", "row 3: withheld must be 0 or 1, got '2'"),
            ("group,score,label,withheld\nA,0.2,0,1\nA,0.8,1, \n", "row 3: withheld must be 0 or 1, got ''"),
            ("group,score,label,withheld\nA,0.2,0\n", "row 2: expected 4 columns, got 3"),
            ("group,score,label\nA,0.2,0,1\n", "row 2: expected 3 columns, got 4"),
            (
                "group,score,label,extra\nA,0.2,0,1\n",
                "expected header 'group,score,label' or 'group,score,label,withheld', "
                "got ['group', 'score', 'label', 'extra']",
            ),
        ],
        ids=["two", "blank", "short-row", "long-row", "extra-header"],
    )
    def test_withheld_column_errors(self, tmp_path, text, message):
        path = _write(tmp_path, text)
        for samples in (True, False):
            with pytest.raises(CsvFormatError) as info:
                load_csv(path, samples=samples)
            assert str(info.value) == message

    def test_without_samples(self, tmp_path):
        path = _write(tmp_path, "group,score,label\nA,0.5,0\nB,0.1,1\nA,0.2,1\nB,0.1,0\nA,0.5,1\n")
        groups = load_csv(path, samples=False)
        assert [(g.group_id, len(g), g.base_rate, g.scores, g.labels) for g in groups] == [
            ("A", 3, 2 / 3, None, None),
            ("B", 2, 0.5, None, None),
        ]
        assert [a.tolist() for a in groups[0].atoms] == [[0.2, 0.5], [0.0, 1.0], [1.0, 1.0]]


class TestGroupData:
    @pytest.mark.parametrize(
        "labels,expected", [([0, 1, 1, 0], 0.5), ([1, 1, 1, 0], 0.75)]
    )
    def test_base_rate(self, labels, expected):
        g = GroupData("g", np.full(len(labels), 0.5), np.array(labels))
        assert g.base_rate == expected

    def test_rejects_bad_scores(self):
        for bad in (1.5, float("nan")):
            with pytest.raises(ValueError, match="outside"):
                GroupData("g", np.array([0.2, bad]), np.array([0, 1]))

    def test_rejects_bad_labels(self):
        # The values are checked before the int64 cast, which truncates 0.5 and 1.7.
        for bad in (2, 0.5, 1.7, float("nan"), -1):
            with pytest.raises(ValueError, match="non-binary"):
                GroupData("g", np.array([0.2, 0.5, 0.7]), np.array([0, 1, bad]))

    @pytest.mark.parametrize("labels", [[0.0, 1.0], [False, True]])
    def test_accepts_exact_float_and_bool_labels(self, labels):
        g = GroupData("g", np.array([0.2, 0.5]), np.array(labels))
        assert g.labels.dtype == np.int64 and g.labels.tolist() == [0, 1]

    def test_copies_a_read_only_array(self):
        # A caller's read-only array could be made writable again, so it is copied.
        frozen_by_caller = np.array([0, 1])
        frozen_by_caller.setflags(write=False)
        assert not np.shares_memory(GroupData("g", np.array([0.2, 0.5]), frozen_by_caller).labels, frozen_by_caller)

    @pytest.mark.parametrize("labels", [[0, 1], [False, True]])
    def test_rows_share_no_memory_with_the_caller(self, labels):
        given = np.array(labels)
        g = GroupData("g", np.array([0.2, 0.5]), given)
        assert given.flags.writeable and not any(np.shares_memory(a, given) for a in g.rows())

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
        table = GroupData("g", table=g.atoms)
        assert (table.base_rate, len(table)) == (g.base_rate, len(g))


class TestAtomTableOnly:
    def test_holds_no_samples(self):
        g = GroupData("A", table=([0.1, 0.5], [2, 1], [1, 3]))
        assert (g.scores, g.labels, len(g), g.base_rate) == (None, None, 7, 4 / 7)
        with pytest.raises(ValueError, match="group 'A' was loaded without its samples"):
            g.samples()
        with pytest.raises(ValueError):
            g.atoms[1][0] = 5.0

    @pytest.mark.parametrize(
        "table, message",
        [
            (([], [], []), "group 'A' has no samples"),
            (([0.1, 1.5], [1, 1], [1, 1]), "group 'A' has scores outside \\[0, 1\\]"),
            (([0.1, float("nan")], [1, 1], [1, 1]), "group 'A' has scores outside \\[0, 1\\]"),
            (([0.1, 0.5], [0, 0], [1, 2]), "group 'A' contains a single class \\(base rate 1.0\\)"),
            (([0.5, 0.1], [1, 1], [1, 1]), "distinct and ascending"),
            (([0.5, 0.5], [1, 1], [1, 1]), "distinct and ascending"),
            (([0.5], [1, 1], [1]), "equal length"),
        ],
    )
    def test_same_checks(self, table, message):
        with pytest.raises(ValueError, match=message):
            GroupData("A", table=table)

    @pytest.mark.parametrize(
        "table",
        [
            ([0.1, 0.5], [0.5, 1.0], [0.5, 0.5]),
            ([0.1, 0.5], [-1, 3], [1, 1]),
            ([0.2, 0.6], [1e300, 1], [1, 1e300]),
            ([0.2, 0.6], [2**44, 2**43], [2**43, 1]),
            ([0.2, 0.6], [1, float("nan")], [1, 1]),
        ],
        ids=["fractional", "negative", "huge", "at-the-cap", "nan"],
    )
    def test_rejects_bad_counts(self, table):
        """Counts must be whole, non-negative and total below 2**45: one ValueError, no warning on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = "^group 'A' needs whole, non-negative counts that total below 2\\*\\*45$"
            with pytest.raises(ValueError, match=message):
                GroupData("A", table=table)

    def test_counts_one_below_the_cap(self):
        g = GroupData("A", table=([0.2, 0.6], [2**44, 2**43 - 1], [2**43, 0]))
        assert (len(g), g.base_rate) == (2**45 - 1, 2**43 / (2**45 - 1))

    @pytest.mark.parametrize(
        "use",
        [
            lambda g, tmp: realize_mixture(g, InterpolationPlan(0.5, g.base_rate, MODE_MONTE_CARLO, 1)),
            lambda g, tmp: write_csv([g], tmp / "out.csv"),
        ],
        ids=["realize_mixture", "write_csv"],
    )
    def test_sample_readers_name_the_group(self, tmp_path, use):
        g = GroupData("A", table=([0.1, 0.5], [2, 1], [1, 3]))
        with pytest.raises(ValueError, match="^group 'A' was loaded without its samples, which this needs$"):
            use(g, tmp_path)
        assert not (tmp_path / "out.csv").exists()

    def test_samples_or_table(self):
        with pytest.raises(ValueError, match="not both"):
            GroupData("A", np.array([0.1, 0.2]), np.array([0, 1]), table=([0.1, 0.2], [1, 0], [0, 1]))


def _stats(g: GroupData):
    """Every report statistic of a group as ``==``-comparable values, and its atom table as bytes."""
    fixed = calibration_gap(g, "fixed-width", 7)
    exact = calibration_gap(g)
    return (
        [a.tobytes() for a in g.atoms], len(g), g.base_rate, rate_point(g), analytic_rates(g), linearity_residual(g),
        exact.gap, exact.per_bin.tolist(), fixed.gap, fixed.per_bin.tolist(),
    )  # fmt: skip


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(0.0, 1.0)), *[st.integers(0, 3)] * 2),
        min_size=1,
        max_size=8,
        unique_by=lambda atom: atom[0],  # -0.0 == 0.0, so at most one of them
    ).filter(lambda atoms: sum(n for _, n, _ in atoms) and sum(p for _, _, p in atoms)),
)
@example([(-0.0, 1, 0), (0.5, 0, 0), (1.0, 0, 2)])
def test_table_form_matches_samples_form(atoms):
    """``GroupData(table=...)`` gives what its rows give: no atom without samples, ``-0.0`` counted at ``0.0``.

    Counts are small whole numbers, zero included, and both forms are
    compared by ``_stats`` (atoms as bytes, both binnings) with every
    warning an error, so a kept empty atom's 0/0 fails too.
    """
    atoms.sort(key=lambda atom: atom[0])
    values, negatives, positives = (list(column) for column in zip(*atoms))
    scores = np.repeat(values, np.add(negatives, positives))
    labels = np.array([label for _, n, p in atoms for label in [0] * n + [1] * p])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _stats(GroupData("g", table=(values, negatives, positives))) == _stats(GroupData("g", scores, labels))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 0.1]), st.floats(0.0, 1.0)), st.booleans()),
        min_size=2,
        max_size=80,
    ).filter(lambda rows: 0 < sum(label for _, label in rows) < len(rows)),
    st.integers(1, 9),
    st.randoms(use_true_random=False),
)
def test_shuffled_chunks_give_equal_statistics(rows, atom_chunk, rng):
    """A group's accumulator, fed its rows in chunks in any order, gives ``==`` rates, moments and gaps.

    Each chunk goes through ``_code_rows`` as a load hands it on: row by
    row, as a block parsed whole, or as its distinct (score, label)
    entries and each row's entry, as a block parsed by its distinct
    lines, so that row-free codes carry counts. ``_ATOM_CHUNK`` from 1 to
    9 makes the row-free codes fold between chunks and within a group's
    first few. Kept rows stay in the order the chunks came.
    """
    scores = np.array([s for s, _ in rows])
    labels = np.array([label for _, label in rows])
    whole = _stats(GroupData("g", scores, labels))
    cuts = sorted(rng.sample(range(1, len(rows)), rng.randint(0, len(rows) - 1)))
    chunks = list(zip(np.split(scores, cuts), np.split(labels, cuts)))
    rng.shuffle(chunks)
    by_entry = [rng.random() < 0.5 for _ in chunks]
    for keep in (False, True):
        with mock.patch.object(dataset, "_ATOM_CHUNK", atom_chunk):
            acc = dataset._Coded(keep)
            for (s, label), distinct in zip(chunks, by_entry):
                at = None
                if distinct:
                    entries, at = np.unique(np.column_stack([s.view(np.uint64), label]), axis=0, return_inverse=True)
                    s, label, at = entries[:, 0].view(np.float64), entries[:, 1] == 1, at.ravel()
                _, pieces = dataset._code_rows(np.zeros(len(s), np.intp), s, label, at, [acc], keep)
                acc.add(*pieces)
            g = acc.group("g")
        assert _stats(g) == whole
        if keep:
            expected = np.concatenate([s for s, _ in chunks])
            assert np.array_equal(g.scores.view(np.uint64), expected.view(np.uint64))
            assert np.array_equal(g.labels, np.concatenate([label for _, label in chunks]))
    shuffled = [i for _, i in sorted(zip([rng.random() for _ in rows], range(len(rows))))]
    assert _stats(GroupData("g", scores[shuffled], labels[shuffled])) == whole


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([0, 1, 2, 255, 256, 257, 65536, 65537]),
    st.lists(st.sampled_from([0.0, -0.0, 1.0, 5e-324]), max_size=4),
    st.randoms(use_true_random=False),
    st.booleans(),
)
def test_bit_codes_match_unique(distinct, extra, rng, as_int):
    """``_bit_codes`` finds what ``np.unique`` with ``return_inverse`` finds, in the narrowest code dtype.

    Tables of 256 and 65536 patterns are the last that fit 8 and 16 bits.
    With ``as_int`` the keys are int64, some negative, which order as
    their uint64 bit patterns do, and come back as int64.
    """
    values = np.concatenate([np.linspace(0.0, 1.0, distinct), extra]) if distinct else np.array(extra)
    scores = values[[rng.randrange(len(values)) for _ in range(3 * len(values))] + list(range(len(values)))]
    keys = (scores * 2 * distinct).astype(np.int64) - distinct if as_int else scores
    table, codes = dataset._bit_codes(keys)
    bits, inverse = np.unique(keys.view(np.uint64), return_inverse=True)
    assert table.dtype == keys.dtype
    assert table.view(np.uint64).tobytes() == bits.tobytes()
    assert codes.dtype == np.min_scalar_type(max(len(bits) - 1, 0))
    assert np.array_equal(codes, inverse.ravel())


@pytest.mark.parametrize(
    "values, pooled", [([0.5, -0.0, 0.0], [5.0, 1.0]), ([0.0, 0.5, -0.0], [4.0, 2.0]), ([-0.0, 0.5], [1.0, 2.0])]
)
def test_pool_atoms_pools_signed_zeros(values, pooled):
    """``-0.0`` and ``0.0`` are one value, ``0.0``, wherever the ``-0.0`` comes."""
    merged, weights = dataset.pool_atoms(np.array(values), np.arange(1.0, len(values) + 1))
    assert merged.tolist() == [0.0, 0.5] and not np.signbit(merged[0])
    assert weights.tolist() == pooled


def test_samples_free_load_memory(tmp_path):
    """Loading atoms only holds one block and the distinct scores, not every row.

    tracemalloc sees numpy's buffers. The chunk sizes are fixed here so
    that the bound tests the structure, not their tuning: a loader that
    held every row before reducing it would peak near the samples load.
    """
    import tracemalloc

    groups = [
        synth(SynthSpec(100_000, "beta_grid", (2, 4, 20), seed=1, group_id="A")),
        synth(SynthSpec(100_000, "grid", (0.1, 0.9, 9), seed=2, group_id="B")),
    ]
    path = tmp_path / "200k.csv"
    write_csv(groups, path)
    peaks = {}
    with mock.patch.object(dataset, "_CHUNK", 1 << 14), mock.patch.object(dataset, "_ATOM_CHUNK", 1 << 12):
        for samples in (False, True):
            tracemalloc.start()
            try:
                loaded = load_csv(path, samples=samples)
                peaks[samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert [len(g) for g in loaded] == [100_000, 100_000]
    assert peaks[False] < peaks[True] / 4, peaks


def test_quoted_load_memory(tmp_path):
    """A file that ``csv`` reads from its first row on loads row-free in about the memory of the same file unquoted.

    Every id is quoted, so the columnar parse refuses the first block and
    hands the whole file to ``csv``. Its records are checked and added to
    the groups ``_ROW_CHUNK`` at a time, so the traced peak stays within
    three times that of the columnar load of the unquoted file. A reader
    that held every row as Python floats and ints, as a whole-file reader
    does, peaks more than twenty times higher. The text chunk and tally
    sizes are fixed here so that the bound tests the structure.
    """
    import tracemalloc

    groups = [
        synth(SynthSpec(100_000, "beta_grid", (2, 4, 20), seed=1, group_id="A")),
        synth(SynthSpec(100_000, "grid", (0.1, 0.9, 9), seed=2, group_id="B")),
    ]
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    write_csv(groups, plain)
    quoted.write_bytes(plain.read_bytes().replace(b"\nA,", b'\n"A",').replace(b"\nB,", b'\n"B",'))
    load_csv(quoted, samples=False)  # imports what a load first needs, untraced
    peaks = {}
    with mock.patch.object(dataset, "_CHUNK", 1 << 14), mock.patch.object(dataset, "_ATOM_CHUNK", 1 << 12):
        for path in (plain, quoted):
            tracemalloc.start()
            try:
                loaded = load_csv(path, samples=False)
                peaks[path.name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert [(g.group_id, len(g)) for g in loaded] == [("A", 100_000), ("B", 100_000)]
    assert peaks["quoted.csv"] < 3 * peaks["plain.csv"], peaks


def test_distinct_line_parse_memory(tmp_path):
    """Parsing a block's distinct lines holds no more than parsing the block whole.

    The file repeats a few lines, so the probe picks the distinct-line
    parse; both branches run on full-size blocks, with and without
    samples. Line strings kept past their block, a second block's worth
    or a dict over every line of the file, go well above the bound.
    """
    import tracemalloc

    groups = [
        synth(SynthSpec(100_000, "beta_grid", (2, 4, 20), seed=1, group_id="A")),
        synth(SynthSpec(100_000, "grid", (0.1, 0.9, 9), seed=2, group_id="B")),
    ]
    path = tmp_path / "200k.csv"
    write_csv(groups, path)
    load_csv(path)  # imports what a load first needs, untraced
    peaks = {}
    for repetitive in (True, False):
        for samples in (True, False):
            with mock.patch.object(dataset, "_repetitive", lambda block: repetitive):
                tracemalloc.start()
                try:
                    loaded = load_csv(path, samples=samples)
                    peaks[repetitive, samples] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert [len(g) for g in loaded] == [100_000, 100_000]
    for samples in (True, False):
        assert peaks[True, samples] <= 1.05 * peaks[False, samples], peaks


def test_samples_free_load_memory_with_distinct_scores(tmp_path):
    """A row-free load of nearly distinct scores peaks within 5% of the load that keeps the rows.

    Two 100k-row ``beta_grid`` groups of 1e6 bins hold ~92k distinct
    scores each, so folds shrink little and the group build sets the peak:
    counting a group's codes must hold no more than counting its kept
    rows. The file is read as written, parsed column-wise, and with its
    first id quoted, so that ``csv`` hands on an entry a row. The chunk
    sizes are the defaults, as a real load uses.
    """
    import tracemalloc

    groups = [
        synth(SynthSpec(100_000, "beta_grid", (2, 4, 1e6), seed=1, group_id="A")),
        synth(SynthSpec(100_000, "beta_grid", (3, 3, 1e6), seed=2, group_id="B")),
    ]
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    write_csv(groups, plain)
    quoted.write_bytes(plain.read_bytes().replace(b"\nA,", b'\n"A",', 1))
    load_csv(plain, samples=False)  # imports what a load first needs, untraced
    for path in (plain, quoted):
        peaks = {}
        for samples in (False, True):
            tracemalloc.start()
            try:
                loaded = load_csv(path, samples=samples)
                peaks[samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert [len(g) for g in loaded] == [100_000, 100_000]
        assert peaks[False] <= 1.05 * peaks[True], (path.name, peaks)


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
