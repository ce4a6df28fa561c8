"""Differential test: the chunked ``write_csv`` against the row-by-row writer.

``write_csv`` formats each distinct score of a chunk once and builds the
chunk's rows from a table of whole lines. ``oracles.write_csv_rows`` writes
one ``csv.writer`` row with one ``repr`` per sample. For any groups and
masks both must write the same bytes, and ``load_csv`` must read the scores
back bit for bit.

A group holds both classes, so at least two rows; a one-row chunk comes
from a group one row longer than a multiple of the chunk size.

Where the chunks after the middle hold enough table entries, a forked
child writes them into an unlinked file that is then appended. That write
must give the one-process file byte for byte, also when the child fails,
and the child must be reaped; the conditions under which no fork happens
are checked too.
"""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import signal
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from calparity import writer
from calparity.cli import main
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
def groups_and_masks(draw, max_groups=3):
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=max_groups, unique=True))
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


@contextlib.contextmanager
def _forks():
    """The calls of ``os.fork`` in this process while the block runs."""
    calls = []
    fork = os.fork
    with mock.patch.object(os, "fork", lambda: calls.append(1) or fork()):
        yield calls


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=100, deadline=None)
@given(groups_and_masks(max_groups=4), st.sampled_from([1, 2, 3, 5, 8]))
def test_two_process_write_matches_one_process(tmp_path_factory, case, chunk):
    """With every split worth a child, the file is the one-process file, wherever the middle row falls.

    Groups of 2-40 rows in chunks of 1-8 rows put the middle row on a
    chunk boundary or inside a chunk, and the cut after a group or inside
    it; ids ``csv`` quotes, signed zeros and the ``withheld`` column are drawn.
    """
    groups, withheld = case
    tmp = tmp_path_factory.mktemp("split")
    sizes = [len(g) for g in groups]
    chunks = sum(-(-n // chunk) for n in sizes)
    ends = np.cumsum([min(chunk, n - lo) for n in sizes for lo in range(0, n, chunk)])
    event("middle row on a chunk boundary" if ends[-1] in 2 * ends[:-1] else "middle row inside a chunk")
    with mock.patch.object(writer, "_WRITE_CHUNK", chunk):
        with mock.patch.object(writer, "_FORK_ENTRIES", float("inf")), _forks() as forks:
            write_csv(groups, tmp / "one.csv", withheld)
        assert forks == []
        with mock.patch.object(writer, "_FORK_ENTRIES", 0), _forks() as forks:
            write_csv(groups, tmp / "two.csv", withheld)
    assert len(forks) == (chunks > 1)
    assert (tmp / "two.csv").read_bytes() == (tmp / "one.csv").read_bytes()
    _no_child_left()


@pytest.fixture
def wide(tmp_path, monkeypatch):
    """Two groups of distinct scores in chunks of 16 rows, every split worth a child, and their one-process file."""
    monkeypatch.setattr(writer, "_WRITE_CHUNK", 16)
    rng = np.random.default_rng(3)
    groups = [GroupData(gid, rng.random(100), np.arange(100) % 2) for gid in ("A", "B, west")]
    one = tmp_path / "one.csv"
    write_csv(groups, one)
    monkeypatch.setattr(writer, "_FORK_ENTRIES", 0)
    return groups, one.read_bytes()


def test_two_process_write_reaps_its_child(wide, tmp_path):
    """The child is forked once a write and reaped, also where SIGCHLD is ignored and the kernel reaps it."""
    groups, expected = wide
    out = tmp_path / "out.csv"
    with _forks() as forks:
        write_csv(groups, out)
        assert out.read_bytes() == expected
        _no_child_left()
        ignored = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            write_csv(groups, out)
        finally:
            signal.signal(signal.SIGCHLD, ignored)
    assert out.read_bytes() == expected and len(forks) == 2
    _no_child_left()


def _killed(tmp, ends, rows, fd):
    os.kill(os.getpid(), signal.SIGKILL)


def _failed(tmp, ends, rows, fd):
    writer._write(tmp, ends, rows)
    tmp.flush()
    os._exit(3)


def _raised(tmp, ends, rows, fd):
    writer._write(tmp, ends, rows[:1])
    raise OSError(errno.ENOSPC, "no space left on device")


def _torn(tmp, ends, rows, fd):
    writer._write(tmp, ends, rows)
    tmp.flush()
    os.write(fd, str(os.fstat(tmp.fileno()).st_size).encode()[:-1])


@pytest.mark.parametrize("task", [_killed, _failed, _raised, _torn], ids=["killed", "exit-3", "raised", "torn"])
def test_failed_child_leaves_its_rows_here(wide, tmp_path, monkeypatch, task):
    """A child killed before it writes, one that exits non-zero or raises, or one whose message is torn: this
    process writes the child's rows itself, and the file is the one-process file."""
    groups, expected = wide
    monkeypatch.setattr(writer, "_write_tail", task)
    out = tmp_path / "out.csv"
    with _forks() as forks:
        write_csv(groups, out)
    assert out.read_bytes() == expected and forks == [1]
    _no_child_left()


def _refuse_tmpfile(open_):
    def refusing(path, flags, *args, **kwargs):
        if flags & os.O_TMPFILE == os.O_TMPFILE:
            raise OSError(errno.EOPNOTSUPP, "O_TMPFILE not supported")
        return open_(path, flags, *args, **kwargs)

    return refusing


def test_one_process_where_a_fork_is_unsafe_or_impossible(wide, tmp_path, monkeypatch):
    """No fork while a second thread runs, on one CPU, or where the directory opens no ``O_TMPFILE`` file; where a
    fork fails, this process writes every row. Each gives the one-process file."""
    groups, expected = wide
    out = tmp_path / "out.csv"

    def written():
        out.unlink(missing_ok=True)
        write_csv(groups, out)
        return out.read_bytes()

    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with _forks() as forks:
            assert written() == expected and forks == []
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    for name, value in [("sched_getaffinity", lambda pid: {0}), ("open", _refuse_tmpfile(os.open))]:
        with mock.patch.object(os, name, value), _forks() as forks:
            assert written() == expected and forks == [], name
    calls = []
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or _raise(BlockingIOError(11, "no process to be had")))
    assert written() == expected and calls == [1]
    _no_child_left()


def _raise(exc):
    raise exc


# The benchmark's synth specs: report-1m, 1e6 rows of 29 distinct scores (at most 20 a chunk), and atoms-200k,
# 2e5 rows of ~92k distinct scores a group (~62k a chunk).
REPORT_1M = [("A", 500_000, "beta_grid", [2, 4, 20]), ("B", 500_000, "grid", [0.1, 0.9, 9])]
ATOMS_200K = [("A", 100_000, "beta_grid", [2, 4, 1e6]), ("B", 100_000, "beta_grid", [3, 3, 1e6])]


@pytest.mark.parametrize("spec, children", [(REPORT_1M, 0), (ATOMS_200K, 1)], ids=["report-1m", "atoms-200k"])
def test_synth_forks_where_scores_barely_repeat(tmp_path, spec, children):
    """``synth`` writes the report-1m spec, whose chunks repeat a few scores, in one process, and the atoms-200k
    spec, whose scores barely repeat, in two."""
    doc = {"groups": [{"id": gid, "n": n, "family": family, "params": params} for gid, n, family, params in spec]}
    with _forks() as forks, contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--spec", json.dumps(doc), "--seed", "5", "--output", str(tmp_path / "s.csv")]) == 0
    assert len(forks) == children
    _no_child_left()
