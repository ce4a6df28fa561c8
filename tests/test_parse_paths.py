"""Differential test: the columnar CSV parser against the row-by-row reference.

``load_csv`` parses clean input with one ``np.loadtxt`` pass and hands
anything else to ``_load_reference``. For any bytes, both must return the
same groups (ids, order, score bits, labels) or raise the same error.
"""

from __future__ import annotations

import codecs
import csv

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from calparity import dataset
from calparity.dataset import CsvFormatError, SynthSpec, load_csv, synth, write_csv

GOLDEN_MIXED = "tests/golden/inputs/mixed.csv"

HEADERS = [
    " group , score,label",
    "grp,score,label",
    '"group",score,label',
    "group,score",
    "group,score,label,extra",
    "",
]
IDS = ["A", "B", "grp-7", "x" * 40, "", "B west", "nan", "1", "A#b"]
SCORES = st.one_of(
    st.sampled_from(["0", "1", "0.5", "-0", "1e-400", "+.5", "5e-1", "0.25", ".75", "1.0", "0.1e1"]),
    st.floats(0.0, 1.0).map(repr),
)
# Each mutation breaks one guard of the fast path, or is benign for both.
MUTATIONS = {
    "id": [" A", "A ", "A\t", "A\x0c", "A\x1f", "é", '"A"', "A\x00", "ABCDEFGHIJKLMNOPQRSTUVWXYZ"],
    "score": [
        "nan", "inf", "-inf", "1.5", "-0.1", "0.1_0", "1_0", " 0.5", "0.5 ", "0.5\x1f", "\x0b0.5",
        "", "5.", "1e", "0x1p-1", "oops", "infinity", "2e-1 ", "1e400", "0.5\x00", "٠.5", "0.5#1",
    ],
    "label": ["10", "1.0", " 1", "1 ", "2", "", "01", "1\x00", "-1", "1\x1f", "True", "1#c"],
    "line": ["", " ", "\t", "\x0c", "A,0.5", "A,0.5,1,", "A,0.5,1,x", ",,", "#A,0.5,1"],
    "header": HEADERS,
    "bytes": [b"\x00", b'"', "é".encode(), b"\xff", codecs.BOM_UTF8, b"\r", b"\n", b","],
    "single": [None],
    "empty": [None],
}  # fmt: skip
NEWLINES = ["\n", "\r\n", "\r"]


@st.composite
def csv_bytes(draw) -> bytes:
    """A valid file, interleaved across groups, then up to two mutations."""
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=3, unique=True))
    extra = draw(st.lists(st.tuples(st.sampled_from(ids), SCORES, st.sampled_from("01")), max_size=20))
    both = [(gid, draw(SCORES), label) for gid in ids for label in "01"]
    rows = [list(r) for r in draw(st.permutations(both + extra))]
    header, empty = "group,score,label", False
    inserts, raw = [], []
    for kind in draw(st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=2)):
        value = draw(st.sampled_from(MUTATIONS[kind]))
        at = draw(st.integers(0, len(rows) - 1))
        if kind == "id":  # rename the whole group, so that it keeps both classes
            rows = [[value if row[0] == rows[at][0] else row[0], *row[1:]] for row in rows]
        elif kind in ("score", "label"):
            rows[at][("score", "label").index(kind) + 1] = value
        elif kind == "line":
            inserts.append((at, value))
        elif kind == "header":
            header = value
        elif kind == "bytes":
            raw.append((draw(st.integers(0, 10**6)), value))
        elif kind == "single":
            for row in rows:
                row[2] = "1" if row[0] == rows[at][0] else row[2]
        else:
            empty = True
    lines = [] if empty else [",".join(row) for row in rows]
    for at, line in inserts:
        lines.insert(at, line)
    newline = draw(st.sampled_from(NEWLINES))
    text = newline.join([header, *lines]) + draw(st.sampled_from(["", newline]))
    data = (codecs.BOM_UTF8 if draw(st.booleans()) else b"") + text.encode("utf-8")
    for offset, insert in raw:
        offset %= len(data) + 1
        data = data[:offset] + insert + data[offset:]
    return data


def _outcome(loader, path):
    try:
        groups = loader(path)
    except Exception as exc:  # every error must match, including csv.Error
        return type(exc), str(exc)
    return [(g.group_id, g.scores.tobytes(), g.labels.dtype, g.labels.tobytes()) for g in groups]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("parse") / "data.csv"


@settings(max_examples=500, deadline=None)
@given(csv_bytes())
@example(b"group,score,label\r\nA,0.5,1\r\nA,0.2,0\r\n")
@example(codecs.BOM_UTF8 + b"group,score,label\nA,0.5,1\nA,0.2,0\n")
@example(b"group,score,label\nA,0.5,1\nB,0.5,0\nA,0.2,0\nB,-0,1\n")
@example(b"group,score,label\nA,0.5,1\n\n\nA,0.2,0\n")
@example(b"group,score,label\nA,0.5,1\n \nA,0.2,0\n")
@example(b"group,score,label\nA,0.5,10\nA,0.2,0\n")
@example(b'group,score,label\n"A",0.5,1\n"A",0.2,0\n')
@example(b"group,score,label\n A,0.5,1\n A,0.2,0\n")
@example(b"group,score,label\nA,0.5,1#c\nA,0.2,0\n")
@example(b"group,score,label\nA,0.5,1\x00\nA,0.2,0\n")
@example("group,score,label\nA,٠.5,1\nA,0.2,0\n".encode())
@example(codecs.BOM_UTF8 + b"\xffgroup,score,label\nA,0,0\nA,0,1")
@example(b"group,score,label\nA,0.1_0,1\nA,0.2,0\n")
@example(b"group,score,label\nA,0.5,1\nA,0.2,1\n")
@example(b"group,score,label\n")
@example(b"")
def test_fast_path_matches_reference(csv_path, data):
    csv_path.write_bytes(data)
    event("reference" if _outcome(lambda p: dataset._load_columnar(p) or [], csv_path) == [] else "columnar")
    assert _outcome(load_csv, csv_path) == _outcome(dataset._load_reference, csv_path)


@pytest.mark.parametrize("spare", [0, 1, 7])
def test_long_lines_across_chunks(csv_path, spare):
    """Lines near the csv field limit, straddling a chunk boundary, read alike.

    The fast path takes lines up to the limit and leaves longer ones to the
    reference, which raises CsvFormatError naming the row once a single
    field passes the limit.
    """
    limit = csv.field_size_limit()
    gid = "B" * (limit - 6 + spare)
    head = "group,score,label\n" + "A,0.5,1\nA,0.25,0\n" * 40_000
    pads = (dataset._CHUNK - len(head) - limit // 2) // 8
    csv_path.write_text(head + "A,0.5,1\n" * pads + f"{gid},0.5,1\n{gid},0.5,0\n", encoding="ascii")
    assert (dataset._load_columnar(csv_path) is None) == (spare > 0)
    outcome = _outcome(load_csv, csv_path)
    assert outcome == _outcome(dataset._load_reference, csv_path)
    if len(gid) > limit:
        row = 1 + 80_000 + pads + 1
        assert outcome == (CsvFormatError, f"row {row}: field larger than field limit ({limit})")


def _refuse(path):
    raise AssertionError(f"{path} fell back to the reference parser")


def test_fast_path_serves_clean_input(tmp_path, monkeypatch):
    """Clean files never reach the reference parser; a silent fallback would lose the gain."""
    a = synth(SynthSpec(300, "beta_grid", (2, 4, 20), seed=5, group_id="A"))
    b = synth(SynthSpec(200, "grid", (0.1, 0.9, 9), seed=6, group_id="B"))
    written = tmp_path / "synth.csv"
    write_csv([a, b], written)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(codecs.BOM_UTF8 + written.read_bytes())
    # Longer than the csv field limit, so every line end must be seen as one.
    big = synth(SynthSpec(20_000, "beta_grid", (2, 4, 50), seed=7, group_id="C"))
    write_csv([big], tmp_path / "crlf.csv")
    cr = tmp_path / "cr.csv"
    cr.write_bytes((tmp_path / "crlf.csv").read_bytes().replace(b"\r\n", b"\r"))
    assert cr.stat().st_size > csv.field_size_limit()
    paths = (GOLDEN_MIXED, written, bom, cr)
    expected = {path: dataset._load_reference(path) for path in paths}
    monkeypatch.setattr(dataset, "_load_reference", _refuse)
    for path, want in expected.items():
        got = load_csv(path)
        assert all(type(g.group_id) is str for g in got)
        assert [g.group_id for g in got] == [g.group_id for g in want]
        for g, w in zip(got, want):
            assert g.scores.tobytes() == w.scores.tobytes()
            assert np.array_equal(g.labels, w.labels)
    assert [g.group_id for g in load_csv(written)] == ["A", "B"]
