"""Differential test: the streaming CSV loader against the whole-file reference.

``load_csv`` parses each block of whole lines column-wise until the first
block that parse refuses, then reads that block and the rest of the input
with ``csv``. ``oracles.load_reference`` decodes the whole file and reads
it with ``csv`` one row at a time. For any bytes both must return the same
groups or raise the same error. With samples kept that means the same ids,
order, score bits and labels; without, the same ids, order, sizes, base
rates and atom tables. A block whose lines mostly repeat parses only its
distinct lines; the differential tests patch that choice (``PROBES``) so
that every block takes one branch, or the two alternate, and check each
input under each, with blocks of one to three rows, and every cut into
chunks of a few small files. A large regular file is split in two: a
forked child parses the tail, and its groups are merged only where both
halves parse column-wise. The split is checked at every line start against
the same reference, and so are the child's lifecycle and the conditions
under which no fork happens.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import itertools
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from calparity import dataset
from calparity.dataset import CsvFormatError, GroupData, load_csv
from calparity.synthetic import SynthSpec, synth
from calparity.writer import write_csv
from oracles import load_reference

GOLDEN_MIXED = "tests/golden/inputs/mixed.csv"

HEADERS = [
    " group , score,label",
    "grp,score,label",
    '"group",score,label',
    "group,score",
    "group,score,label,extra",
    "group,score,label,withheld",
    "group,score,label, withheld ",
    "group,score,label",
    "",
]
IDS = ["A", "B", "grp-7", "x" * 40, "", "B west", "nan", "1", "A#b"]
SCORES = st.one_of(
    st.sampled_from(["0", "1", "0.5", "-0", "1e-400", "+.5", "5e-1", "0.25", ".75", "1.0", "0.1e1"]),
    st.floats(0.0, 1.0).map(repr),
)
# Each mutation breaks one guard of the columnar parse, or is benign for both.
MUTATIONS = {
    "id": [" A", "A ", "A\t", "A\x0c", "A\x1f", "é", '"A"', "A\x00", "ABCDEFGHIJKLMNOPQRSTUVWXYZ"],
    "score": [
        "nan", "inf", "-inf", "1.5", "-0.1", "0.1_0", "1_0", " 0.5", "0.5 ", "0.5\x1f", "\x0b0.5",
        "", "5.", "1e", "0x1p-1", "oops", "infinity", "2e-1 ", "1e400", "0.5\x00", "٠.5", "0.5#1",
    ],
    "label": ["10", "1.0", " 1", "1 ", "2", "", "01", "1\x00", "-1", "1\x1f", "True", "1#c"],
    "withheld": ["10", "1.0", " 1", "0 ", "2", "", "01", "-1", "True", "1#c"],
    "line": ["", " ", "\t", "\x0c", "A,0.5", "A,0.5,1,", "A,0.5,1,x", ",,", "#A,0.5,1", "A,0.5,1,0,1"],
    "header": HEADERS,
    "bytes": [b"\x00", b'"', "é".encode(), b"\xff", codecs.BOM_UTF8, b"\r", b"\n", b","],
    # A group's id as a quoted field, holding what only csv reads: line ends, a quote, a comma.
    "quoted": ["a\r\nb", "a\rb", "a\nb", 'say "hi"', "B, west", "A", " A "],
    "single": [None],
    "empty": [None],
}  # fmt: skip
NEWLINES = ["\n", "\r\n", "\r"]


@st.composite
def csv_bytes(draw) -> bytes:
    """A valid file, interleaved across groups, maybe with a ``withheld`` column, then up to two mutations.

    Up to three empty lines go anywhere after the header, and each line
    ends as the whole file does or as drawn for it alone.
    """
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=3, unique=True))
    extra = draw(st.lists(st.tuples(st.sampled_from(ids), SCORES, st.sampled_from("01")), max_size=20))
    both = [(gid, draw(SCORES), label) for gid in ids for label in "01"]
    rows = [list(r) for r in draw(st.permutations(both + extra))]
    header, empty = "group,score,label", False
    if draw(st.booleans()):
        header += ",withheld"
        rows = [[*row, draw(st.sampled_from("01"))] for row in rows]
    inserts, raw = [], []
    for kind in draw(st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=2)):
        value = draw(st.sampled_from(MUTATIONS[kind]))
        at = draw(st.integers(0, len(rows) - 1))
        if kind in ("id", "quoted"):  # rename the whole group, so that it keeps both classes
            value = '"' + value.replace('"', '""') + '"' if kind == "quoted" else value
            rows = [[value if row[0] == rows[at][0] else row[0], *row[1:]] for row in rows]
        elif kind in ("score", "label", "withheld"):
            column = ("score", "label", "withheld").index(kind) + 1
            if column < len(rows[at]):
                rows[at][column] = value
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
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=3)):  # empty lines, which both readers skip
        lines.insert(at, "")
    lines = [header, *lines]
    # One line end for the whole file, or one drawn for each line.
    newline = st.just(draw(st.sampled_from(NEWLINES))) if draw(st.booleans()) else st.sampled_from(NEWLINES)
    ends = [draw(newline) for _ in lines]
    if draw(st.booleans()):  # no line end after the last line
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    data = (codecs.BOM_UTF8 if draw(st.booleans()) else b"") + text.encode("utf-8")
    for offset, insert in raw:
        offset %= len(data) + 1
        data = data[:offset] + insert + data[offset:]
    return data


# Replacements for ``dataset._repetitive``: every block parses its distinct lines, or none does.
PROBES = (lambda block: True, lambda block: False)


def _alternating():
    """A probe that sends blocks to the two parsers in turn, so one group's accumulator gets both kinds of piece."""
    turns = itertools.cycle([True, False])
    return lambda block: next(turns)


def _outcome(loader, path, samples=True):
    """What ``loader`` makes of ``path``: per group its samples or its atoms, or the error."""
    try:
        groups = loader(path)
    except Exception as exc:  # every error must match, including csv.Error
        return type(exc), str(exc)
    if samples:
        return [(g.group_id, g.scores.tobytes(), g.labels.dtype, g.labels.tobytes()) for g in groups]
    return [(g.group_id, len(g), g.base_rate, *(a.tobytes() for a in g.atoms)) for g in groups]


def _reference(path, samples):
    """The reference's outcome: its groups, reduced to their atom tables without samples."""
    if samples:
        return _outcome(load_reference, path)
    return _outcome(lambda p: [GroupData(g.group_id, table=g.atoms) for g in load_reference(p)], path, False)


def _loaded(path, samples):
    return _outcome(lambda p: load_csv(p, samples=samples), path, samples)


@contextlib.contextmanager
def _handoffs():
    """The line number of each hand-off to the ``csv`` reader while the block runs."""
    seen = []
    read_rows = dataset._read_rows

    def watched(text, lineno, *rest):
        seen.append(lineno)
        return read_rows(text, lineno, *rest)

    with mock.patch.object(dataset, "_read_rows", watched):
        yield seen


def _line_chars(data: bytes) -> int:
    """Mean line length of ``data``, line ends included: the text a block of one row reads."""
    return max(1, len(data) // (1 + data.count(b"\n") + data.count(b"\r")))


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
@example(b"group,score,label,withheld\r\nA,0.5,1,1\r\nA,0.2,0,0\r\n")
@example(b"group,score,label,withheld\nA,0.5,1,1\nA,0.2,0,2\n")
@example(b"group,score,label,withheld\nA,0.5,1\nA,0.2,0\n")
@example(b"group,score,label\nA,0.5,1,0\nA,0.2,0,1\n")
@example(b"group,score,label,extra\nA,0.5,1,0\nA,0.2,0,1\n")
@example(b"group,score,label\nA,0.5,1\nB,-0,1\nB,0,0\nA,-0,0\nB,0.5,0\n")
@example(b"group,score,label\nA,0.5,1\nA,0.5,1\n\nA,0.5,1\n\nA,0.2,0\nA,0.5,1\n\n")
@example(b"group,score,label\nA,-0,1\nA,0,0\nA,-0,0\nA,0,1\nA,0.5,1\nA,-0,1\n")
@example(b"group,score,label\nA,0.5,1\nB,0.5,0\nA,0.5,1\nB,0.2,1\nA,0.2,0\nB,0.5,0\nA,0.5,1\n")
@example(b"group,score,label,withheld\nA,0.5,1,1\nA,0.5,1,0\nA,0.5,1,1\nA,0.2,0,0\nA,0.5,1,0\n")
@example(b"group,score,label\n" + b"A,0.5,1\nA,0.2,0\n" * 520 + b"A,0.5,2\n")
@example(b"\rgroup,score,label\nA,0,0\nA,0,1\n")
@example(b"group,score,label\r\nA,0.5,1\r\n\r\nA,0.2,0\r\nA,0.5,1\r\n")
def test_fast_path_matches_reference(csv_path, data):
    """With and without samples, every block parsed by its distinct lines or whole: the reference's outcome."""
    csv_path.write_bytes(data)
    for samples in (True, False):
        reference = _reference(csv_path, samples)
        for probe in PROBES:
            with mock.patch.object(dataset, "_repetitive", probe), _handoffs() as seen:
                assert _loaded(csv_path, samples) == reference
            event("csv" if seen else "columnar")


@settings(max_examples=300, deadline=None)
@given(csv_bytes(), st.sampled_from([1, 2, 3]), st.booleans(), st.sampled_from([1, 2, 5, 1 << 17]))
@example(b"group,score,label\nA,0.5,1\nB,-0,1\nB,0,0\nA,-0,0\nB,0.5,0\nA,0.5,0\n", 1, False, 1)
@example(b"group,score,label,withheld\rA,0.5,1,1\rA,0.2,0,0\r\rB,0.2,0,1\rB,0.7,1,0", 2, True, 2)
@example(b"group,score,label\n\n\n\nA,0.5,1\n\n\n\n\n\nA,0.2,0\n\n\n", 1, False, 1)
@example(b"group,score,label\nA,0.5,1\nA,0.5,1\n\nA,0.5,1\nA,0.2,0\n\nA,0.2,0\n", 3, False, 2)
@example(b"group,score,label\nA,-0,1\nA,0,0\nA,0,1\nA,-0,0\nA,-0,1\nA,0.5,1\n", 2, False, 1)
@example(b'group,score,label\r\nA,0.5,1\r\n"a\r\nb",0.5,1\r\n"a\r\nb",0.2,0\r\nA,0.2,0\r\n', 1, True, 1)
@example(b'group,score,label\nA,0.5,1\nA,0.2,0\nA,0.5,1\n"x,""y""",0.5,1\n"x,""y""",0.2,0\n', 2, False, 1)
@example(b"group,score,label\n\r\r\nA,0,10\nA,0,1\nB,0,0\nB,0,1\nA,0,0\n", 1, False, 1)
@example(b"group,score,label\r\nA,0.1,0\r\n\r\r\nA,0.9,1\r\nB,0.2,0\r\nB,0.8,1\r\nB,x,1\r\n", 2, True, 1)
@example(b"group,score,label\nA,0,1\r\r\nA,0,0\nB,0,0\nB,0,7\n", 2, False, 1)  # csv names row 6
def test_chunked_loader_matches_reference(csv_path, data, rows, samples, atom_chunk):
    """Blocks of about 1, 2 or 3 rows, codes folded and ``csv`` rows added every few rows, each probe: same outcome."""
    csv_path.write_bytes(data)
    reference = _reference(csv_path, samples)
    for probe in [*PROBES, _alternating()]:
        with mock.patch.object(dataset, "_CHUNK", rows * _line_chars(data)), mock.patch.object(
            dataset, "_ATOM_CHUNK", atom_chunk
        ), mock.patch.object(dataset, "_ROW_CHUNK", rows), mock.patch.object(dataset, "_repetitive", probe):
            assert _loaded(csv_path, samples) == reference


# Small files read under every chunk size, so every cut falls everywhere: inside a quoted field
# that holds a line end, between the \r and \n of a line end at the hand-off, inside a UTF-8
# character, and with a bad row in the first, a middle or the last block.
CUT_FILES = {
    "crlf-quoted": b'group,score,label\r\nA,0.5,1\r\nA,0.2,0\r\n"B\r\n,x",0.5,1\r\n"B\r\n,x",0.25,0\r\n',
    "cr-quoted": b'group,score,label\rA,0.5,1\rA,0.2,0\r"B\rx ""y""",0.5,1\r"B\rx ""y""",0.25,0',
    "lf-quoted": b'group,score,label\nA,0.5,1\n"A\n",0.2,0\nA,0.25,0\n"A\n",0.5,1\n',
    "mixed-ends": b"group,score,label\nA,0.5,1\r\nA,0.2,0\rA,0.5,0\n\r\nA,0.25,1\r",
    "bad-first": b"group,score,label\r\nA,1.5,1\r\nA,0.2,0\r\nA,0.5,1\r\nA,0.2,0\r\nA,0.5,1\r\n",
    "bad-middle": b"group,score,label\r\nA,0.5,1\r\nA,0.2,0\r\nA,0.5,2\r\nA,0.2,0\r\nA,0.5,1\r\n",
    "bad-last": b"group,score,label\r\nA,0.5,1\r\nA,0.2,0\r\nA,0.5,1\r\nA,0.2,0\r\nA,0.5\r\n",
    "crlf-quoted-bad": b'group,score,label\r\n"A",0.5,1\r\nA,0.2,0\r\nA,0.5,1\r\nA,0.5,2\r\n',
    "crlf-blank-bad": b"group,score,label\r\nA,0.5,1\r\n\r\n\r\nA,0.2,0\r\nA,0.5,1\r\nA,0.5,2\r\n",
    "lf-blank-bad": b"group,score,label\nA,0.5,1\n\n\nA,0.2,0\nA,0.5,1\nA,0.5,2\n",
    "not-utf8": "group,score,label\nA,0.5,1\nÅ,0.2,0\n".encode() + b"\xc3,0.5,1\nA,1.5,0\n",
    "utf8-cut": codecs.BOM_UTF8 + "group,score,label\nÅ,0.5,1\nÅ,0.2,0\n".encode() + b"\xf0\x9f\x98",
}
# The outcome some of them must have.
CUT_ERRORS = {
    "bad-first": (CsvFormatError, "row 2: score 1.5 outside [0, 1]"),
    "bad-middle": (CsvFormatError, "row 4: label must be 0 or 1, got '2'"),
    "bad-last": (CsvFormatError, "row 6: expected 3 columns, got 2"),
    "crlf-quoted-bad": (CsvFormatError, "row 5: label must be 0 or 1, got '2'"),
    "crlf-blank-bad": (CsvFormatError, "row 7: label must be 0 or 1, got '2'"),
    "lf-blank-bad": (CsvFormatError, "row 7: label must be 0 or 1, got '2'"),
    "not-utf8": (CsvFormatError, "row 4: not valid UTF-8"),  # before the bad score of row 5
    "utf8-cut": (CsvFormatError, "row 4: not valid UTF-8"),  # a character cut short by the end of the file
}


@pytest.mark.parametrize("name", sorted(CUT_FILES))
def test_every_cut_matches_reference(csv_path, name):
    """Every ``_CHUNK`` size, so every cut, each probe, with and without samples: the reference's outcome."""
    data = CUT_FILES[name]
    csv_path.write_bytes(data)
    for samples in (True, False):
        reference = _reference(csv_path, samples)
        for chunk, probe in itertools.product(range(1, len(data) + 2), PROBES):
            with mock.patch.object(dataset, "_CHUNK", chunk), mock.patch.object(
                dataset, "_ROW_CHUNK", 1
            ), mock.patch.object(dataset, "_repetitive", probe):
                assert _loaded(csv_path, samples) == reference, chunk
    assert reference == CUT_ERRORS.get(name, reference)


@pytest.mark.parametrize("spare", [0, 1, 7])
def test_long_lines_across_chunks(csv_path, spare):
    """Lines near the csv field limit, straddling a chunk boundary, read alike.

    The columnar parse takes lines up to the limit and hands longer ones to
    ``csv``, which raises CsvFormatError naming the row once a single field
    passes the limit.
    """
    limit = csv.field_size_limit()
    gid = "B" * (limit - 6 + spare)
    pairs = dataset._CHUNK // 64
    head = "group,score,label\n" + "A,0.5,1\nA,0.25,0\n" * pairs
    pads = (dataset._CHUNK - len(head) - limit // 2) // 8
    assert pads > 0  # the long lines start in the first chunk and end in the second
    csv_path.write_text(head + "A,0.5,1\n" * pads + f"{gid},0.5,1\n{gid},0.5,0\n", encoding="ascii")
    with _handoffs() as seen:
        outcome = _outcome(load_csv, csv_path)
    assert seen == ([1 + 2 * pairs + pads + 1] if spare > 0 else [])
    assert outcome == _outcome(load_reference, csv_path)
    if len(gid) > limit:
        row = 1 + 2 * pairs + pads + 1
        assert outcome == (CsvFormatError, f"row {row}: field larger than field limit ({limit})")


def test_bad_row_before_overlong_field(csv_path):
    """A bad row is reported before a later field that ``csv`` cannot read, in the same piece of records."""
    big = "B" * (csv.field_size_limit() + 1)
    csv_path.write_text(f'group,score,label\n"A",0.5,1\nA,0.5,2\n{big},0.5,1\n', encoding="ascii")
    for samples in (True, False):
        assert _loaded(csv_path, samples) == (CsvFormatError, "row 3: label must be 0 or 1, got '2'")
    assert _outcome(load_reference, csv_path) == (CsvFormatError, "row 3: label must be 0 or 1, got '2'")


@pytest.mark.parametrize("samples", [True, False], ids=["samples", "atoms"])
def test_bad_row_after_repeats_names_its_row(csv_path, samples):
    """A block of repeated lines parses each text once, yet the error still names the row.

    The file is one block, so ``csv`` reads it from its header on.
    """
    csv_path.write_bytes(b"group,score,label\n" + b"A,0.5,1\nA,0.2,0\n" * 600 + b"A,0.5,2\nA,0.5,1\n")
    assert csv_path.stat().st_size < dataset._CHUNK and dataset._repetitive(csv_path.read_text())
    with _handoffs() as seen, pytest.raises(CsvFormatError, match=r"^row 1202: label must be 0 or 1, got '2'$"):
        load_csv(csv_path, samples=samples)
    assert seen == [1]


def _refuse(text, lineno, *rest):
    raise AssertionError(f"line {lineno} was handed to the csv reader")


def test_fast_path_serves_clean_input(tmp_path, monkeypatch):
    """Clean files, CRLF and bare CR among them, never reach the ``csv`` hand-off; a silent one would lose the gain.

    Nor does a blank line of bare ``\\r``s, a row ended by a bare ``\\r`` before its ``\\r\\n``, or a row ended by a
    bare ``\\r`` alone, in a block of repeated lines or in one parsed whole.
    """
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
    # A Monte Carlo output, with its withheld column.
    mc = tmp_path / "mc.csv"
    write_csv([a, b], mc, withheld={"B": np.arange(len(b)) % 2})
    # Few distinct lines, so every block parses its distinct lines only.
    repeated = tmp_path / "repeated.csv"
    write_csv(
        [
            synth(SynthSpec(16_000, "grid", (0.1, 0.9, 9), seed=8, group_id="D")),
            synth(SynthSpec(12_000, "beta_grid", (2, 4, 20), seed=9, group_id="E")),
        ],
        repeated,
    )
    # A blank line of bare \r's after the second row, which csv reads as two empty lines and numpy refuses,
    # the second row ended by a bare \r before its \r\n, which csv reads as the row and an empty line,
    # and the \r\n after the second row made a bare \r, which csv reads as a line end and numpy refuses,
    # each in a block of repeated lines and in one of distinct lines, parsed whole.
    spread = tmp_path / "spread.csv"
    write_csv([synth(SynthSpec(3000, "beta_grid", (2, 4, 10**6), seed=10, group_id="F")), b], spread)
    assert dataset._repetitive(repeated.read_text()) and not dataset._repetitive(spread.read_text())
    bare_cr = []
    for source in (repeated, spread):
        lines = source.read_bytes().split(b"\r\n")
        bare_cr.append(tmp_path / f"blank-cr-{source.name}")
        bare_cr[-1].write_bytes(b"\r\n".join([*lines[:3], b"\r", *lines[3:]]))
        bare_cr.append(tmp_path / f"row-cr-{source.name}")
        bare_cr[-1].write_bytes(b"\r\n".join([*lines[:2], lines[2] + b"\r", *lines[3:]]))
        bare_cr.append(tmp_path / f"joined-cr-{source.name}")
        bare_cr[-1].write_bytes(b"\r\n".join(lines[:3]) + b"\r" + b"\r\n".join(lines[3:]))
    paths = (GOLDEN_MIXED, written, bom, cr, mc, repeated, *bare_cr)
    expected = {path: load_reference(path) for path in paths}
    monkeypatch.setattr(dataset, "_read_rows", _refuse)
    distinct = []
    parse_distinct = dataset._parse_distinct
    monkeypatch.setattr(dataset, "_parse_distinct", lambda *args: distinct.append(1) or parse_distinct(*args))
    for path, want in expected.items():
        got = load_csv(path)
        assert all(type(g.group_id) is str for g in got)
        assert [g.group_id for g in got] == [g.group_id for g in want]
        for g, w in zip(got, want):
            assert g.scores.tobytes() == w.scores.tobytes()
            assert np.array_equal(g.labels, w.labels)
        tables = load_csv(path, samples=False)
        assert [g.group_id for g in tables] == [g.group_id for g in want]
        for g, w in zip(tables, want):
            assert g.scores is None and len(g) == len(w) and g.base_rate == w.base_rate
            assert all(x.tobytes() == y.tobytes() for x, y in zip(g.atoms, w.atoms))
    assert [g.group_id for g in load_csv(written)] == ["A", "B"]
    distinct.clear()
    load_csv(repeated), load_csv(repeated, samples=False)
    blocks = -(-repeated.stat().st_size // dataset._CHUNK)
    assert blocks > 1 and len(distinct) == 2 * blocks


def _line_starts(data: bytes) -> list[int]:
    """Each offset after a ``\\n``: where a split may start the tail."""
    return [at + 1 for at, byte in enumerate(data) if byte == ord("\n")]


@contextlib.contextmanager
def _merges():
    """The result of each merge of a child's groups while the block runs: True where they were taken."""
    merges = []
    merge = dataset._Groups.merge

    def watched(groups, pipe):
        merges.append(merge(groups, pipe))
        return merges[-1]

    with mock.patch.object(dataset._Groups, "merge", watched):
        yield merges


@settings(max_examples=200, deadline=None)
@given(csv_bytes(), st.integers(0, 10**6), st.sampled_from([1, 2, 3]))
@example(b"group,score,label\nA,0.5,1\nA,0.2,0\nB,0.5,1\nB,0.2,0\n", 2, 1)  # B first seen in the tail
@example(b'group,score,label\nA,0.5,1\n"x\ny",0.5,1\n"x\ny",0.2,0\nA,0.2,0\n', 2, 1)  # a quoted field spans mid
@example(b'group,score,label\n"A",0.5,1\nA,0.2,0\nB,0.5,1\nB,0.2,0\n', 2, 1)  # a csv hand-off in the head
@example(b'group,score,label\nA,0.5,1\nA,0.2,0\nB,0.5,1\n"B",0.2,0\nB,0.7,1\n', 2, 1)  # an unclean tail block
@example(b"group,score,label\nA,0.5,2\nA,0.2,0\nB,0.5,7\nB,0.2,0\n", 2, 1)  # row 2's error, not row 4's
@example(b"group,score,label\rA,0.5,1\rA,0.2,0\rB,0.5,1\rB,0.2,0\r", 0, 1)  # no \n: no split
@example(b"group,score,label\nA,0.5,1\nA,0.2,0\nB,0.5,1\nB,0.2,0\n", 0, 2)  # a header-only head
@example(b"group,score,label\nA,0.5,1\nA,0.2,0\n" + codecs.BOM_UTF8 + b"B,0.5,1\nB,0.2,0\n", 2, 1)  # an id's BOM at mid
def test_split_matches_reference(csv_path, data, at, rows):
    """Split at any line start, blocks of 1-3 rows, each probe, with and without samples: the reference's outcome.

    A forked child parses the tail; the head is parsed here, and the
    child's groups are taken only where both halves parse column-wise.
    """
    csv_path.write_bytes(data)
    starts = _line_starts(data)
    mid = starts[at % len(starts)] if starts else None
    for samples in (True, False):
        reference = _reference(csv_path, samples)
        for probe in PROBES:
            with mock.patch.object(dataset, "_CHUNK", rows * _line_chars(data)), mock.patch.object(
                dataset, "_repetitive", probe
            ), mock.patch.object(dataset, "_SPLIT", 0), mock.patch.object(
                dataset, "_line_start", lambda fh, at: mid
            ), _merges() as merges:
                assert _loaded(csv_path, samples) == reference
            event("tail taken" if merges == [True] else "tail read here" if merges else "csv in the head or no split")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The calls of ``os.fork`` in this process."""
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


@pytest.fixture
def large(tmp_path, monkeypatch):
    """A file of two groups above the split threshold, with 1 KiB chunks."""
    monkeypatch.setattr(dataset, "_CHUNK", 1 << 10)
    path = tmp_path / "large.csv"
    write_csv(
        [
            synth(SynthSpec(1500, "beta_grid", (2, 4, 20), seed=1, group_id="A")),
            synth(SynthSpec(1000, "grid", (0.1, 0.9, 9), seed=2, group_id="B")),
        ],
        path,
    )
    assert path.stat().st_size > 2 * dataset._SPLIT * dataset._CHUNK
    return path


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_split_reaps_its_child(large, forks):
    """A load that splits leaves no child behind, whether it returns or raises."""
    for samples in (True, False):
        assert _loaded(large, samples) == _reference(large, samples)
        _no_child_left()
    data = large.read_bytes()
    head_bad = data.replace(b"\r\nA,", b"\r\nA,2,", 1)
    tail_bad = data[: len(data) * 3 // 4] + data[len(data) * 3 // 4 :].replace(b",1\r\n", b",7\r\n", 1)
    for bad in (head_bad, tail_bad):
        large.write_bytes(bad)
        for samples in (True, False):
            outcome = _loaded(large, samples)
            assert outcome[0] is CsvFormatError and outcome == _reference(large, samples)
            _no_child_left()
    assert len(forks) == 6


def test_split_where_sigchld_is_ignored(large, forks):
    """Where SIGCHLD is ignored the kernel reaps the child itself, and the load still returns the groups."""
    ignored = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        for samples in (True, False):
            assert _loaded(large, samples) == _reference(large, samples)
    finally:
        signal.signal(signal.SIGCHLD, ignored)
    assert len(forks) == 2


def test_child_killed_before_it_writes(large, forks, monkeypatch):
    """A child killed before it sends anything leaves the tail to this process."""
    monkeypatch.setattr(dataset._Groups, "send", lambda groups, fd: os.kill(os.getpid(), signal.SIGKILL))
    for samples in (True, False):
        with _handoffs() as seen:
            assert _loaded(large, samples) == _reference(large, samples)
        assert seen == []
    assert len(forks) == 2
    _no_child_left()


def test_split_leaves_signal_unimported(large):
    """In a fresh interpreter, ``stats`` on a file it splits never imports ``signal``: the child that sent its groups
    is waited for, and only one still at work is killed."""
    code = (
        "import os, sys\n"
        "from calparity import dataset\n"
        "from calparity.cli import main\n"
        "dataset._CHUNK, fork, forks = 1 << 10, os.fork, []\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "rc = main(sys.argv[1:])\n"
        "print(rc, len(forks), 'signal' in sys.modules, file=sys.stderr)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dataset.__file__).parent.parent)}
    r = subprocess.run([sys.executable, "-c", code, "stats", "--input", str(large)], capture_output=True, text=True,
                       env=env, timeout=60)
    assert r.stderr.split() == ["0", "1", "False"], r.stderr


@pytest.mark.parametrize("keep", [1, 0.5], ids=["last-byte", "half"])
def test_torn_message_is_undone(large, forks, monkeypatch, keep):
    """A child that dies while it writes: what was merged of its groups is undone, and the tail read here."""
    send = dataset._Groups.send

    def torn(groups, fd):
        read, write = os.pipe()
        send(groups, write)  # a small file's message fits in the pipe's buffer
        message = os.read(read, 1 << 20)
        os.write(fd, message[: int(len(message) * keep) - (keep == 1)])

    monkeypatch.setattr(dataset._Groups, "send", torn)
    for samples in (True, False):
        with _merges() as merges:
            assert _loaded(large, samples) == _reference(large, samples)
        assert merges == [False]
    _no_child_left()


@pytest.mark.parametrize("samples", [True, False], ids=["rows", "row-free"])
def test_message_torn_at_every_byte(tmp_path, forks, samples):
    """``merge`` takes the message ``send`` wrote whole or not at all.

    In this process, with no fork: the head of a two-group file is parsed
    here and the tail's groups sent into a pipe, as a child would send
    them. Every proper prefix of that message leaves the head's ids and
    accumulators as they were; the whole message gives the one-process load.
    """
    path = tmp_path / "two.csv"
    write_csv(
        [
            synth(SynthSpec(60, "beta_grid", (2, 4, 20), seed=1, group_id="A")),
            synth(SynthSpec(40, "grid", (0.1, 0.9, 9), seed=2, group_id="B")),
        ],
        path,
    )
    mid = _line_starts(path.read_bytes())[30]  # among A's rows, so B is first seen in the tail
    head = dataset._Groups(samples)
    with open(path, "rb") as fh:
        for entries in dataset._entries(dataset._decoded(fh, mid), head.ids):
            if entries is None:
                break
            head.add(entries)
    read, write = os.pipe()
    dataset._parse_tail(path, mid, samples, write)  # it closes ``write`` once sent; the message fits the pipe
    with open(read, "rb") as pipe:
        message = pipe.read()

    def state():
        return list(head.ids), [bytes(b) for acc in head.accs for b in (acc.table, acc.codes, acc.labels, acc.counts)]

    def merged(data):
        read, write = os.pipe()
        os.write(write, data)
        os.close(write)
        with open(read, "rb") as pipe:
            return head.merge(pipe)

    before = state()
    assert before[0] == ["A"]
    for size in range(len(message)):
        assert not merged(message[:size])
        assert state() == before, f"a message torn after {size} of {len(message)} bytes changed the groups"
    assert merged(message)
    assert _outcome(lambda p: head.build(), path, samples) == _loaded(path, samples)
    assert forks == []


def test_no_split_where_a_fork_is_unsafe_or_useless(large, forks, tmp_path, monkeypatch):
    """No fork while a second thread runs, for a FIFO, below the threshold, or without a ``\\n`` past the middle.

    Where a fork fails, one process reads the file.
    """
    assert _loaded(large, True) == _reference(large, True) and len(forks) == 1
    forks.clear()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _loaded(large, True) == _reference(large, True)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = subprocess.Popen(["cp", str(large), str(fifo)])
    try:
        assert _loaded(fifo, True) == _reference(large, True)
    finally:
        assert writer.wait(timeout=10) == 0
    small = tmp_path / "small.csv"
    small.write_bytes(large.read_bytes()[: dataset._SPLIT * dataset._CHUNK - 1].rpartition(b"\r\n")[0])
    cr = tmp_path / "cr.csv"
    cr.write_bytes(large.read_bytes().replace(b"\r\n", b"\r"))
    for path in (small, cr):
        assert _loaded(path, True) == _reference(path, True)
    assert forks == []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or _raise(BlockingIOError(11, "no process to be had")))
    assert _loaded(large, True) == _reference(large, True) and forks == [1]
    _no_child_left()


def _raise(exc):
    raise exc
