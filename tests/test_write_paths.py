"""Differential test: the chunked ``write_csv`` against the row-by-row writer.

``write_csv`` formats each distinct score of a chunk once and builds the
chunk's rows from a table of whole lines. ``oracles.write_csv_rows`` writes
one ``csv.writer`` row with one ``repr`` per sample. For any groups and
masks both must write the same bytes, and ``load_csv`` must read the scores
back bit for bit.

A group holds both classes, so at least two rows; a one-row chunk comes
from a group one row longer than a multiple of the chunk size.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calparity import writer
from calparity.dataset import GroupData, load_csv
from calparity.writer import write_csv
from oracles import write_csv_rows

CHUNK = writer._WRITE_CHUNK
SPECIAL = [-0.0, 0.0, 5e-324, 1e-05, 0.1, 1.0]
IDS = ["A", "B, west", 'say "hi"', " spaced ", "", "x\ny", "1"]


def _written(tmp_path, groups, withheld=None):
    """(write_csv bytes, oracle bytes, path of the write_csv file)."""
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    write_csv(groups, ours, withheld)
    write_csv_rows(groups, oracle, withheld)
    return ours.read_bytes(), oracle.read_bytes(), ours


def _assert_round_trip(path, groups):
    loaded = load_csv(path)
    assert [g.group_id for g in loaded] == [g.group_id.strip() for g in groups]
    for got, want in zip(loaded, groups):
        assert got.scores.tobytes() == want.scores.tobytes()
        assert np.array_equal(got.labels, want.labels)


@st.composite
def groups_and_masks(draw):
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=3, unique=True))
    groups, masks = [], {}
    for gid in ids:
        n = draw(st.integers(2, 40))
        score = st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1.0))
        scores = draw(st.lists(score, min_size=n, max_size=n))
        labels = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
        labels[:2] = draw(st.permutations([0, 1]))
        groups.append(GroupData(gid, np.array(scores), np.array(labels)))
        mask = draw(st.sampled_from([None, bool, np.int64, float]))
        if mask is not None:
            masks[gid] = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))).astype(mask)
    withheld = draw(st.sampled_from([None, masks]))
    return groups, withheld


@settings(max_examples=200, deadline=None)
@given(groups_and_masks(), st.sampled_from([1, 2, 3, 5, 8]))
def test_small_chunks_match_oracle(tmp_path_factory, case, chunk):
    groups, withheld = case
    tmp_path = tmp_path_factory.mktemp("write")
    with mock.patch.object(writer, "_WRITE_CHUNK", chunk):
        ours, oracle, path = _written(tmp_path, groups, withheld)
    assert ours == oracle
    if withheld is None:
        _assert_round_trip(path, groups)


@pytest.mark.parametrize("n", [2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_chunk_boundaries_match_oracle(tmp_path, n):
    rng = np.random.default_rng(n)
    few = rng.choice(SPECIAL, size=n)
    scores = np.where(rng.random(n) < 0.5, few, rng.random(n))
    groups = [
        GroupData("A", scores, np.arange(n) % 2),
        GroupData("B, west", np.array([0.5, -0.0, 0.5]), np.array([1, 0, 0])),
    ]
    ours, oracle, path = _written(tmp_path, groups)
    assert ours == oracle
    _assert_round_trip(path, groups)
    ours, oracle, _ = _written(tmp_path, groups, {"A": rng.random(n) < 0.3})
    assert ours == oracle


def test_signed_zero_keeps_its_sign(tmp_path):
    g = GroupData("A", np.array([0.0, -0.0, 0.0, -0.0]), np.array([0, 1, 1, 0]))
    ours, oracle, path = _written(tmp_path, [g])
    assert ours == oracle == b"group,score,label\r\nA,0.0,0\r\nA,-0.0,1\r\nA,0.0,1\r\nA,-0.0,0\r\n"
    _assert_round_trip(path, [g])


@pytest.mark.parametrize(
    "mask",
    [np.array([True]), np.array([0, 1, 0, 1]), np.array([0, 2, 0]), np.array([[0, 1, 0]])]
    + [np.array([0.0, 1.0, bad]) for bad in (0.5, 1.7, float("nan"), -1.0)],
)
def test_bad_mask_raises_before_writing(tmp_path, mask):
    """A short mask used to drop rows silently, because ``zip`` truncates; 0.5 was cast to 0."""
    g = GroupData("A", np.array([0.1, 0.2, 0.3]), np.array([0, 1, 0]))
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="group 'A' must hold 3 values of 0 or 1"):
        write_csv([g], path, {"A": mask})
    assert not path.exists()
