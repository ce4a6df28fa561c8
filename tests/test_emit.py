"""Differential test: the CLI's JSON writer against the dict-per-bin oracle.

``cli._emit`` writes a report with ``_encode``, one walk that checks every
value, formats every scalar float through ``_number``, and streams each
record array of calibration bins column by column in chunks of
``_RECORD_CHUNK`` rows; a column's values that pass its "plain" mask are
formatted by ``%.12g`` and the rest by ``_number``. ``oracles.dump_json``
turns every bin into a dict and every dataclass into
``dataclasses.asdict``, rounds every float and calls
``json.dump(indent=2)``. For any report of the shapes the CLI prints,
both must write the same bytes, and a NaN or infinity anywhere
must raise before the first byte.
"""

from __future__ import annotations

import contextlib
import copy
import io
import math
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calparity import cli
from calparity.cli import _emit, main
from calparity.cost import Segment
from calparity.eo import GroupFlip
from calparity.parity import FeasibilityVerdict
from oracles import dump_json

GOLDEN = Path(__file__).parent / "golden"
FIELDS = "mean_score,positive_fraction,weight"
# Edges of the plain mask in cli._encode_records: values about 1e-4 and 2e-4,
# large values, near-integers whose 12 digits print as integers, and the
# smallest normal and subnormal doubles.
SPECIAL = [
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1 - 1e-13, 0.1, 1.0, 0.5, 2.5,
    9.999999999999999e-05, 1e-4, 0.00010000000000000002, 9.9999999999995e-05,
    0.00019999999999999998, 2e-4, 0.00020000000000000004,
    49999999999.99999, 1e11, 999999999999.9999, 999999999999.5,
    0.99999999999995, 1.0000000000049, 123456.0000000001,
]  # fmt: skip
IDS = ['"', "\\", "\n", "\x00", "é", "µ-群", "", "A", 'B, "west"']

raw = st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])
finite = st.one_of(
    st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False), raw.filter(math.isfinite)
)
ids = st.one_of(st.sampled_from(IDS), st.text(max_size=5))
ints = st.one_of(st.integers(-(2**70), 2**70), st.sampled_from([0, 2**63, -(2**53) - 1]))


@st.composite
def bins(draw, max_rows=12):
    """A per-bin record array; columns draw from a small pool so values repeat."""
    n = draw(st.integers(0, max_rows))
    pool = draw(st.lists(finite, min_size=1, max_size=4))
    value = st.one_of(st.sampled_from(pool), finite)
    columns = [np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=np.float64) for _ in range(3)]
    return np.rec.fromarrays(columns, names=FIELDS)


def _rates(draw):
    return {"fp": draw(finite), "fn": draw(finite)}


@st.composite
def stats_reports(draw):
    """The shape ``stats`` prints: groups -> calibration -> bins."""
    groups = []
    for gid in draw(st.lists(ids, max_size=3)):
        groups.append(
            {
                "group": gid,
                "n": draw(ints),
                "base_rate": draw(finite),
                "rates": _rates(draw),
                "analytic_rates": _rates(draw),
                "calibration": {"gap": draw(finite), "bins": draw(bins())},
                "linearity_residual": draw(finite),
            }
        )
    return {"groups": groups}


scalars = st.one_of(st.none(), st.booleans(), ints, finite, ids)
unit = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 0.1, 1 - 1e-13, 1.0]), st.floats(0.0, 1.0))
# Report values the CLI writes as the dict of their fields.
records = st.one_of(
    st.builds(GroupFlip, unit, unit),
    st.builds(Segment, finite, finite, finite, finite),
    st.builds(FeasibilityVerdict, st.booleans(), finite, finite, finite, ids),
)
# Plot-data-like and other nested documents, record arrays and dataclasses among the leaves.
documents = st.recursive(
    st.one_of(scalars, bins(max_rows=5), records),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(ids, inner, max_size=4),
    ),
    max_leaves=25,
)
reports = st.one_of(stats_reports(), st.dictionaries(ids, documents, max_size=5))


def _written(report) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(report)
    return out.getvalue()


def _oracle(report) -> str:
    out = io.StringIO()
    dump_json(report, out)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(reports, st.sampled_from([1, 2, 3, cli._RECORD_CHUNK]))
@example(
    {"groups": [{"group": "\x00", "calibration": {"gap": 1 - 1e-13, "bins": np.rec.fromarrays(
        [np.array([-0.0, 0.0, 5e-324]), np.array([1e-05, 1 - 1e-13, 0.1]), np.array([1.0, 1.0, 0.5])],
        names=FIELDS)}}]},
    2,
)
@example(
    {"groups": [{"group": "A", "calibration": {"gap": 0.5, "bins": np.rec.fromarrays(
        [np.array(SPECIAL), -np.array(SPECIAL), np.array(SPECIAL[::-1])], names=FIELDS)}}]},
    cli._RECORD_CHUNK,
)  # fmt: skip
def test_matches_oracle(report, chunk):
    expected = _oracle(copy.deepcopy(report))
    with mock.patch.object(cli, "_RECORD_CHUNK", chunk):
        assert _written(report) == expected


@settings(max_examples=50, deadline=None)
@given(reports)
def test_output_file_matches_stdout(tmp_path_factory, report):
    path = tmp_path_factory.mktemp("emit") / "report.json"
    expected = _oracle(copy.deepcopy(report))
    _emit(copy.deepcopy(report), str(path))
    assert path.read_bytes() == expected.encode("ascii")
    assert _written(report) == expected


@pytest.mark.parametrize("field,key", [("mean_score", "score"), ("positive_fraction", "positive_fraction"),
                                       ("weight", "weight")])  # fmt: skip
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_bin_names_its_key(tmp_path, field, key, bad):
    columns = {name: np.full(5, 0.25) for name in FIELDS.split(",")}
    columns[field][3] = bad
    per_bin = np.rec.fromarrays(list(columns.values()), names=FIELDS)
    report = {"groups": [{"group": "A", "calibration": {"gap": 0.5, "bins": per_bin}}]}
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(ValueError, match=rf"^{key} is not finite \({bad}\)$"):
        _emit(report)
    assert out.getvalue() == ""
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match=rf"^{key} is not finite"):
        _emit(report, str(path))
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_scalar_names_its_key(bad):
    report = {"groups": [{"calibration": {"gap": bad, "bins": np.rec.fromarrays([[0.5]] * 3, names=FIELDS)}}]}
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(ValueError, match=rf"^gap is not finite \({bad}\)$"):
        _emit(report)
    # In a dataclass the field, not the dict key holding it, is named.
    report = {"pre": 0.5, "feasibility": [FeasibilityVerdict(True, 0.5, bad, 1.0, "ok")]}
    with contextlib.redirect_stdout(out), pytest.raises(ValueError, match=rf"^g2_cost is not finite \({bad}\)$"):
        _emit(report)
    assert out.getvalue() == ""


def test_plot_data_output_file_matches_stdout(tmp_path, capsys):
    argv = ["plot-data", "--input", str(GOLDEN / "inputs" / "mixed.csv"), "--weighted-cost", "1,3"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    path = tmp_path / "scene.json"
    assert main([*argv, "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text(encoding="utf-8") == stdout


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_stats_chunks_match_corpus(capsys, chunk):
    """Exact ``stats`` prints the recorded bytes whatever the chunk size."""
    with mock.patch.object(cli, "_RECORD_CHUNK", chunk):
        assert main(["stats", "--input", str(GOLDEN / "inputs" / "mixed.csv")]) == 0
    stdout = capsys.readouterr().out
    assert stdout == (GOLDEN / "expected" / "stats_exact.stdout").read_text(encoding="utf-8")
