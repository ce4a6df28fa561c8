"""Differential tests: the streamed ``calparity synth`` against whole-array draws.

``SynthGroup`` draws each group's scores ``_WRITE_CHUNK`` at a time, keeps
each chunk as a table and a code a row, and draws the labels again chunk
by chunk as ``write_rows`` writes them. ``oracles.synth_whole`` makes
every draw in one call and builds a GroupData; written by
``oracles.write_csv_rows``, its groups must give the CLI's CSV byte for
byte, and its checks the CLI's exit code and message.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calparity import synthetic, writer
from calparity.cli import main
from calparity.synthetic import SynthSpec, synth
from oracles import dump_json, synth_whole, write_csv_rows

CHUNK = writer._WRITE_CHUNK
SHIFTS = [0.0, 0.3, -0.3, 0.95, -0.95, 1.5]  # all but 0.0 clamp some score


def _entry(spec: SynthSpec) -> dict:
    return {
        "id": spec.group_id, "n": spec.n, "family": spec.family, "params": list(spec.params),
        "shift": spec.miscalibration_shift, "seed": spec.seed,
    }  # fmt: skip


def _cli(specs, path):
    """(exit code, stdout, stderr) of ``calparity synth`` on ``specs``."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["synth", "--spec", json.dumps({"groups": [_entry(s) for s in specs]}), "--output", str(path)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _oracle(specs, path):
    """What the CLI must give: (exit code, stdout, stderr), and the file at ``path`` on success."""
    try:
        groups = [synth_whole(s) for s in specs]
    except ValueError as exc:
        return 1, "", f"error: {exc}\n"
    write_csv_rows(groups, path)
    out = io.StringIO()
    rows = [{"id": g.group_id, "n": len(g), "seed": s.seed, "base_rate": g.base_rate} for g, s in zip(groups, specs)]
    report = {"written": str(path), "groups": rows}
    dump_json(report, out)
    return 0, out.getvalue(), ""


def _assert_matches_oracle(tmp_path, specs):
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    got, want = _cli(specs, ours), _oracle(specs, oracle)
    assert got == (want[0], want[1].replace(str(oracle), str(ours)), want[2])
    if want[0] == 0:
        assert ours.read_bytes() == oracle.read_bytes()
    else:
        assert not ours.exists()


@st.composite
def synth_specs(draw):
    ids = draw(st.lists(st.sampled_from(["A", "B", "c, d", "1"]), min_size=1, max_size=3, unique=True))
    specs = []
    for gid in ids:
        family = draw(st.sampled_from(synthetic.FAMILIES))
        if family == "point_mass":
            params = (draw(st.sampled_from([0.0, 0.05, 0.5, 0.9, 1.0])),)
        elif family == "grid":
            lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
            params = (lo, hi, draw(st.integers(1, 12)))
        else:
            a, b = draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0))
            params = (a, b, draw(st.sampled_from([1, 7, 20, 10**6])))
        n, shift, seed = draw(st.integers(1, 40)), draw(st.sampled_from(SHIFTS)), draw(st.integers(0, 2**32))
        specs.append(SynthSpec(n, family, params, miscalibration_shift=shift, seed=seed, group_id=gid))
    return specs


@settings(max_examples=300, deadline=None)
@given(synth_specs(), st.sampled_from([1, 2, 3, 7]))
def test_small_chunks_match_whole_draws(tmp_path_factory, specs, chunk):
    with mock.patch.object(writer, "_WRITE_CHUNK", chunk):
        _assert_matches_oracle(tmp_path_factory.mktemp("synth"), specs)


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_chunk_edges_match_whole_draws(tmp_path, n):
    specs = [
        SynthSpec(n, "beta_grid", (2, 4, 10**6), miscalibration_shift=-0.3, seed=n, group_id="A"),
        SynthSpec(n, "grid", (0.1, 0.9, 9), seed=n + 1, group_id="B"),
    ]
    _assert_matches_oracle(tmp_path, specs)
    for spec in specs:
        ours, oracle = synth(spec), synth_whole(spec)
        assert ours.scores.tobytes() == oracle.scores.tobytes()
        assert ours.labels.tobytes() == oracle.labels.tobytes()
        assert ours.base_rate == oracle.base_rate


@pytest.mark.parametrize(
    "second, message",
    [
        (
            SynthSpec(50, "point_mass", (0.0,), group_id="B"),
            "degenerate synthetic spec: labels would be single-class in expectation",
        ),
        (SynthSpec(5, "point_mass", (0.01,), seed=3, group_id="B"), "group 'B' contains a single class (base rate 0.0)"),
    ],
    ids=["degenerate", "single-class"],
)
@pytest.mark.parametrize("existing", [None, b"group,score,label\r\nold,0.5,1\r\n"])
def test_failing_second_group_writes_nothing(tmp_path, second, message, existing):
    specs = [SynthSpec(3 * CHUNK, "grid", (0.1, 0.9, 9), seed=1, group_id="A"), second]
    with pytest.raises(ValueError, match=re.escape(message)):
        synth_whole(second)
    path = tmp_path / "out.csv"
    if existing is not None:
        path.write_bytes(existing)
    assert _cli(specs, path) == (1, "", f"error: {message}\n")
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == existing


DEGENERATE = "degenerate synthetic spec: labels would be single-class in expectation"
SINGLE_CLASS = "group 'B' contains a single class (base rate 1.0)"


@pytest.mark.parametrize("chunk", [CHUNK, 7])
@pytest.mark.parametrize(
    "second, message",
    [
        (SynthSpec(1000, "grid", (0.0, 5e-324, 2), seed=1, group_id="B"), DEGENERATE),
        (SynthSpec(1000, "grid", (1 - 2**-53, 1.0, 2), seed=1, group_id="B"), DEGENERATE),
        (SynthSpec(16, "grid", (1 - 2**-52, 1.0, 2), seed=1, group_id="B"), SINGLE_CLASS),
        (SynthSpec(1000, "grid", (1 - 2**-52, 1.0, 2), seed=1, group_id="B"), DEGENERATE),
    ],
    ids=["underflow", "1-2**-53", "1-2**-52-n16", "1-2**-52-n1000"],
)
def test_degenerate_decision_at_rounding_edges(tmp_path, second, message, chunk):
    """The degenerate-spec check is decided by numpy's mean over the whole group, to the last bit.

    Each group's probabilities sum to more than 0 and less than its size,
    yet numpy's mean rounds to 0 or 1 in all but the third, whose mean
    lies below 1 while every label is 1. Their chunk sums lie within the
    margins of 0 or of the size, so numpy's mean decides; a decision from
    the sums alone gets some of them wrong.
    """
    with pytest.raises(ValueError, match=re.escape(message)):
        synth_whole(second)
    with mock.patch.object(writer, "_WRITE_CHUNK", chunk):
        _assert_matches_oracle(tmp_path, [SynthSpec(100, "grid", (0.1, 0.9, 9), seed=1, group_id="A"), second])


def test_synth_memory(tmp_path):
    """``synth`` holds a byte a row of score codes per group, and one chunk's draws and text.

    Each chunk here has at most 20 distinct scores, so its codes are uint8.
    The first group is shifted, and its degenerate-spec check sums each
    chunk's probabilities from the chunk's table, building no array a row.
    The chunk size is fixed here so that the bound tests the structure:
    drawing whole arrays, keeping scores as floats, a probability array a
    row, or int64 labels or a GroupData copy beside the codes, goes well above it.
    """
    rows = 200_000
    spec = json.dumps(
        {
            "groups": [
                {"id": "A", "n": rows // 2, "family": "beta_grid", "params": [2, 4, 20], "shift": 0.05, "seed": 1},
                {"id": "B", "n": rows // 2, "family": "grid", "params": [0.1, 0.9, 9], "seed": 2},
            ]
        }
    )
    argv = ["synth", "--spec", spec, "--output", str(tmp_path / "synth.csv")]
    with mock.patch.object(writer, "_WRITE_CHUNK", 1 << 12), contextlib.redirect_stdout(io.StringIO()):
        main(argv)  # imports what synth first needs, numpy.random among them, untraced
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 4 * rows, peak / rows


@pytest.mark.parametrize(
    "params",
    [(0.1, 0.9, 1), (0.1, 0.9, 2), (0.1, 0.9, 9), (0.0, 1.0, 10**6 + 7), (0.3, 0.3, 9), (0.05, 1.0, 9), (0, 1, 4)],
    ids=["k=1", "k=2", "k=9", "k=10**6+7", "lo==hi", "hi=1.0", "int-bounds"],
)
def test_grid_draws_match_linspace_choice(params):
    """``grid`` draws index the grid, not a table of it, yet give ``rng.choice(np.linspace(...))``'s values."""
    spec = SynthSpec(3 * 64 + 5, "grid", params, seed=11, group_id="A")
    with mock.patch.object(writer, "_WRITE_CHUNK", 64):
        ours = synth(spec)
    oracle = synth_whole(spec)
    assert ours.scores.tobytes() == oracle.scores.tobytes()
    assert ours.labels.tobytes() == oracle.labels.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1.0])), min_size=2, max_size=2),
    st.integers(1, 40),
)
def test_linspace_at_matches_the_table(bounds, k):
    """Every entry, signed zeros and steps that underflow included, has the bits ``np.linspace`` gives it."""
    lo, hi = sorted(bounds)
    table = np.linspace(lo, hi, k)
    assert synthetic._linspace_at(lo, hi, k, np.arange(k)).tobytes() == table.tobytes()
    picks = np.array([k - 1, 0, k // 2, k - 1])
    assert synthetic._linspace_at(lo, hi, k, picks).tobytes() == table[picks].tobytes()


def test_grid_draw_memory():
    """A ``grid`` draw's memory follows the rows drawn, not ``k``; a table of 10**7 values is 80 MB."""
    spec = SynthSpec(100, "grid", (0.1, 0.9, 10**7), seed=3)
    list(synthetic._draw_chunks(spec, np.random.default_rng(spec.seed)))  # untraced, so lazy imports are not counted
    tracemalloc.start()
    try:
        chunks = list(synthetic._draw_chunks(spec, np.random.default_rng(spec.seed)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scores = np.concatenate([table[codes] for table, codes in chunks])
    assert scores.tobytes() == synth_whole(spec).scores.tobytes()
    assert peak < 64 << 10, peak
