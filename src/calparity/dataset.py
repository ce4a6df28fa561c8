"""Grouped score/label data: CSV ingestion and a seeded synthetic generator.

A group's scores are probabilistic classifier outputs in [0, 1] and its
labels the observed binary outcomes. Both classes must be present in every
group so the base rate stays strictly inside (0, 1). Every group statistic
depends on the samples only through the group's atom table: its distinct
scores, each with a count of negatives and positives. So ``load_csv`` can
keep just that table, built chunk by chunk, and drop the rows; only
realizing a Monte Carlo mixture, flipping scores and writing rows need
them.
"""

from __future__ import annotations

import copy
import csv
import io
import os
import warnings
import weakref
from collections import Counter
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

CSV_HEADER = ("group", "score", "label")
# The fourth column a Monte Carlo output carries; it is read, checked and dropped.
WITHHELD = "withheld"

FAMILIES = ("point_mass", "grid", "beta_grid")

# Caps on a synthetic group's rows and on the ``grid`` family's k, far above
# any real use and small enough to reject a spec before it allocates.
_MAX_SYNTH_N = 10**8
_MAX_GRID_K = 10**8


class CsvFormatError(ValueError):
    """Input CSV does not match the ``group,score,label`` schema."""


def pool_atoms(values: np.ndarray, *weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """Merge equal values: the distinct values, ascending, and each weight summed per value."""
    merged, inverse = np.unique(values, return_inverse=True)
    return (merged, *(np.bincount(inverse, weights=w, minlength=merged.size) for w in weights))


@dataclass(frozen=True, eq=False)
class GroupData:
    """One population group: its atom table, and its samples where they are kept.

    Built from ``scores`` and ``labels``, a group keeps its samples in
    order, copied and frozen, and builds its atom table on first use. An
    array another group froze is shared, not copied, where it has the
    dtype this one keeps (float64 scores, int64 labels). Labels must equal
    0 or 1 as given, so 0.5 or NaN is rejected, not truncated by the cast.
    Built from ``table`` alone, an atom table as ``atoms`` describes it,
    the group holds no samples: ``scores`` and ``labels`` are None and
    ``samples()`` raises. Both forms make the same checks with the same messages, and
    ``base_rate``, the mean label cached at construction, is the same float
    either way. Instances are safe to share across threads.
    """

    group_id: str
    scores: np.ndarray | None = None
    labels: np.ndarray | None = None
    table: InitVar[tuple[np.ndarray, np.ndarray, np.ndarray] | None] = None
    base_rate: float = field(init=False)
    _size: int = field(init=False, repr=False)

    def __post_init__(self, table) -> None:
        if table is None:
            scores, labels = np.asarray(self.scores, dtype=float), np.asarray(self.labels)
            if scores.ndim != 1 or labels.shape != scores.shape:
                raise ValueError("scores and labels must be 1-d arrays of equal length")
            values, size = scores, scores.size
        else:
            if self.scores is not None or self.labels is not None:
                raise ValueError("give a group samples or an atom table, not both")
            atoms = values, negatives, positives = tuple(np.array(a, dtype=float) for a in table)
            if values.ndim != 1 or negatives.shape != values.shape or positives.shape != values.shape:
                raise ValueError("atom table columns must be 1-d arrays of equal length")
            if np.any(values[1:] <= values[:-1]):
                raise ValueError("atom table values must be distinct and ascending")
            size, positives = int(negatives.sum() + positives.sum()), positives.sum()
        if size == 0:
            raise ValueError(f"group {self.group_id!r} has no samples")
        if not np.all((values >= 0.0) & (values <= 1.0)):  # NaN fails too
            raise ValueError(f"group {self.group_id!r} has scores outside [0, 1]")
        if table is None:
            if not _binary(labels):
                raise ValueError(f"group {self.group_id!r} has non-binary labels")
            scores, labels = _frozen(scores, np.float64), _frozen(labels, np.int64)
            positives = labels.sum()
            object.__setattr__(self, "scores", scores)
            object.__setattr__(self, "labels", labels)
        else:
            for a in atoms:
                a.setflags(write=False)
            self.__dict__["atoms"] = atoms  # the cache of the ``atoms`` property
        object.__setattr__(self, "base_rate", _base_rate(self.group_id, positives, size))
        object.__setattr__(self, "_size", int(size))

    def __len__(self) -> int:
        return self._size

    def samples(self) -> tuple[np.ndarray, np.ndarray]:
        """``(scores, labels)``; ValueError naming the group if only its atom table was kept."""
        if self.scores is None:
            raise ValueError(f"group {self.group_id!r} was loaded without its samples, which this needs")
        return self.scores, self.labels

    @cached_property
    def atoms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Atom table ``(values, negatives, positives)``, built on first use.

        ``values`` are the distinct scores in ascending order; ``negatives``
        and ``positives`` count the samples of each class at each value, as
        floats. Every group statistic depends on the samples only through
        this table. It is tallied ``_ATOM_CHUNK`` samples at a time, as the
        CSV loader tallies it, so building it takes memory for one chunk
        and the distinct scores. Caching is safe because the arrays are
        frozen.
        """
        tally = _Tally()
        for lo in range(0, len(self), _ATOM_CHUNK):
            tally.add(self.scores[lo : lo + _ATOM_CHUNK], self.labels[lo : lo + _ATOM_CHUNK] == 1)
        atoms = tally.table()
        for a in atoms:
            a.setflags(write=False)
        return atoms


# Arrays a GroupData has frozen, by id; another GroupData may hold one without a copy.
_FROZEN: weakref.WeakValueDictionary[int, np.ndarray] = weakref.WeakValueDictionary()


def _frozen(a: np.ndarray, dtype: type[np.generic]) -> np.ndarray:
    """``a`` itself if a GroupData froze it as ``dtype``, else a frozen copy of it as ``dtype``."""
    if _FROZEN.get(id(a)) is a and a.dtype == dtype and not a.flags.writeable:
        return a
    a = a.astype(dtype)
    a.setflags(write=False)
    _FROZEN[id(a)] = a
    return a


def _binary(a: np.ndarray) -> bool:
    """Every value equals 0 or 1; checked before any cast, which would truncate 0.5 to 0."""
    return bool(np.all((a == 0) | (a == 1)))


def _base_rate(group_id: str, positives: float, size: int) -> float:
    """The mean label; ValueError naming the group if it holds a single class."""
    mu = float(positives) / size
    if not 0.0 < mu < 1.0:
        raise ValueError(f"group {group_id!r} contains a single class (base rate {mu})")
    return mu


# Samples a group's atom table takes in before it pools them (or twice its
# atoms, if more): large enough that sorting dominates the per-pool cost,
# small enough that one pool's arrays stay a few MB.
_ATOM_CHUNK = 1 << 17


class _Tally:
    """A group's atom table, built from pieces of its samples.

    Pieces wait until they hold ``_ATOM_CHUNK`` entries, or twice the atoms
    counted so far. They are then counted, one sort over their scores and
    one over their positives' scores, and pooled with the table. So memory
    follows the distinct scores, not the samples, and each sample is
    sorted about once. An entry may stand for several samples, as a line
    repeated in a block does; pieces with such counts are pooled instead,
    each entry weighted by its count.
    """

    def __init__(self) -> None:
        self.atoms: tuple[np.ndarray, ...] = (np.empty(0),) * 3
        self.pieces: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]] = []
        self.waiting = 0

    def add(self, scores: np.ndarray, positive: np.ndarray, count: np.ndarray | None = None) -> None:
        """Add samples: scores, a bool array that marks the positives and, if given, each entry's count."""
        self.pieces.append((scores, positive, count))
        self.waiting += len(scores)
        if self.waiting >= max(_ATOM_CHUNK, 2 * len(self.atoms[0])):
            self.table()

    def table(self) -> tuple[np.ndarray, ...]:
        """The atom table of every sample added so far."""
        if self.pieces:
            scores, positive, weights = zip(*self.pieces)
            scores, positive = np.concatenate(scores), np.concatenate(positive)
            if any(w is not None for w in weights):
                count = np.concatenate([np.ones(len(s), np.intp) if w is None else w for s, _, w in self.pieces])
                values, negatives, positives = pool_atoms(scores, count * ~positive, count * positive)
            else:  # no inverse index, as pool_atoms builds: lighter and faster on samples
                values, counts = np.unique(scores, return_counts=True)
                found, found_counts = np.unique(scores[positive], return_counts=True)
                positives = np.zeros(values.size)
                positives[np.searchsorted(values, found)] = found_counts
                negatives = counts - positives
            # ``+ 0.0`` writes a zero as ``0.0`` whether ``-0.0`` or ``0.0`` sorted first.
            new = values + 0.0, negatives, positives
            if len(self.atoms[0]):
                new = pool_atoms(*map(np.concatenate, zip(self.atoms, new)))
            self.atoms, self.pieces, self.waiting = new, [], 0
        return self.atoms

    def args(self) -> tuple:
        """``GroupData`` arguments after the id."""
        return None, None, self.table()


class _Rows:
    """A group's samples, appended piece by piece into growing buffers.

    One buffer per column instead of a list of pieces: concatenating a list
    leaves each freed piece as a hole in the heap, which kept about 6 MB
    more resident on a 1e6-row load.
    """

    def __init__(self) -> None:
        self.scores, self.labels = bytearray(), bytearray()

    def add(self, scores: np.ndarray, labels: np.ndarray) -> None:
        self.scores += scores.tobytes()
        self.labels += labels.tobytes()

    def args(self) -> tuple:
        """``GroupData`` arguments after the id."""
        return np.frombuffer(self.scores, float), np.frombuffer(self.labels, bool)


def load_csv(path: str | Path, samples: bool = True) -> list[GroupData]:
    """Read a ``group,score,label`` CSV into one GroupData per group, in first-seen order.

    With ``samples`` each group keeps its rows in file order; without, each
    group holds only its atom table, and memory is bounded by the number
    of distinct scores instead of rows. A fourth ``withheld`` column, as a
    Monte Carlo output has, must hold 0 or 1 in every row and is dropped.
    A leading UTF-8 byte order mark is skipped. Raises CsvFormatError with
    the offending row number for schema violations, out-of-range scores,
    non-binary labels, and single-class groups.

    Clean input is parsed column-wise, chunk by chunk; anything the fast
    path does not read exactly as the row parser would goes to
    ``_load_reference``, which also produces every row error. Both end in
    ``_groups``, which reports a single-class group. A chunk whose lines
    mostly repeat, as a classifier's few distinct scores make them, has
    each distinct line text parsed once, under the same checks.
    """
    groups = _load_columnar(path, samples)
    if groups is None:
        groups = _load_reference(path)
        if not samples:
            groups = [GroupData(g.group_id, table=g.atoms) for g in groups]
    return groups


def _header_width(header: Sequence[str] | None) -> int | None:
    """3 or 4, the columns a header names, or None if it is not ours."""
    names = None if header is None else tuple(h.strip() for h in header)
    return len(names) if names in (CSV_HEADER, CSV_HEADER + (WITHHELD,)) else None


_CHUNK = 1 << 18  # characters of text read, checked and parsed at a time

# Group ids are coded to dense ints through a converter, not read as a
# fixed-width string column, which would truncate long ids silently and
# cost more memory. ``S2`` labels keep ``10`` from passing as ``1``.
_ROW = np.dtype([("group", "i4"), ("score", "f8"), ("label", "S2"), (WITHHELD, "S2")])


class _Codes(dict):
    """Maps each group id to a dense int in first-seen order."""

    def __missing__(self, key: str) -> int:
        code = self[key] = len(self)
        return code


class _Unclean(Exception):
    """The text holds something numpy would read differently from ``csv``."""


def _blocks(fh: TextIO) -> Iterator[str]:
    """Yield the text in blocks of whole lines, from chunks of ``_CHUNK`` characters.

    Each chunk is cut at its last line end and the rest carried into the
    next block. ``fh`` translates ``\\r\\n`` and a bare ``\\r`` to ``\\n``,
    as ``csv`` also ends a line at either. Raises _Unclean at a chunk that
    holds a non-ASCII character, a quote (which ``csv`` strips and numpy
    keeps) or NUL (which numpy strips from byte strings), or at a line
    longer than ``csv.field_size_limit()``, on which the reference parser
    raises; so the carried text never outgrows that limit.
    """
    limit = csv.field_size_limit()
    tail = ""  # the unfinished line
    while chunk := fh.read(_CHUNK):
        if not chunk.isascii() or '"' in chunk or "\0" in chunk:
            raise _Unclean
        start, end = -len(tail), len(chunk)  # start of the current line, maybe in the tail
        while end - start > limit:
            newline = chunk.rfind("\n", max(start, 0), start + limit + 1)
            if newline < 0:
                raise _Unclean
            start = newline + 1
        cut = chunk.rfind("\n") + 1
        if cut:
            yield tail + chunk[:cut]
            tail = chunk[cut:]
        else:
            tail += chunk
    if tail:
        yield tail


def _load_columnar(path: str | Path, samples: bool = True) -> list[GroupData] | None:
    """Parse clean input one ``np.loadtxt`` block at a time, or return None.

    None means the reference parser must decide: the input is not a regular
    file of clean text, the header or a row does not parse as plain
    ``id,float,0|1`` (with ``,0|1`` after it under a ``withheld`` header),
    an id carries surrounding whitespace, or a score lies outside [0, 1].
    Whatever this accepts, the reference parser reads to the same groups,
    in the same order, with the same bits, or rejects with the same error.

    A block where at least half of the first ``_PROBE`` lines repeat is
    parsed by ``_parse_distinct``: one ``np.loadtxt`` pass over its
    distinct lines, which a clean block passes exactly when all its lines
    do. Other blocks, such as those of nearly distinct scores, go to
    ``_parse_block`` whole. Each block is then split by group. With
    ``samples`` each group's pieces are appended to its rows (``_Rows``);
    without, each piece goes into the group's ``_Tally``, with each
    distinct line's count where the lines were counted, and the rows are
    dropped, so memory follows one block and the distinct scores, not the
    file.
    """
    if not os.path.isfile(path):  # a pipe can be read only once
        return None
    codes = _Codes()
    groups: list[_Rows | _Tally] = []  # per group code
    rows = 0
    try:
        with open(path, encoding="utf-8-sig") as fh:
            blocks = _blocks(fh)
            header, _, first = next(blocks, "").partition("\n")
            width = _header_width(header.split(","))
            if width is None:
                return None
            dtype = _ROW if width == 4 else np.dtype(_ROW.descr[:3])
            for block in chain([first], blocks):
                if not block.strip("\n"):  # numpy skips empty lines, and warns if that is all
                    continue
                if _repetitive(block):
                    group, *columns = _parse_distinct(block, dtype, codes, samples)
                else:
                    group, *columns = _parse_block(block, dtype, codes)
                rows += len(group)
                groups.extend(_Rows() if samples else _Tally() for _ in range(len(codes) - len(groups)))
                _add_block(group, columns, groups)
    except (_Unclean, ValueError, Warning):  # invalid UTF-8 is a ValueError too
        return None
    if not rows or any(gid != gid.strip() for gid in codes):
        return None
    return _groups((gid, *group.args()) for gid, group in zip(codes, groups))


# Lines of a block the probe reads; a parse of many thousand lines costs far more.
_PROBE = 1 << 10


def _repetitive(block: str) -> bool:
    """At least half of the block's first ``_PROBE`` lines repeat an earlier one."""
    head = block.split("\n", _PROBE)[:_PROBE]
    return 2 * len(set(head)) <= len(head)


def _parse_distinct(block: str, dtype: np.dtype, codes: _Codes, samples: bool) -> list[np.ndarray]:
    """``_parse_block`` of the block's distinct lines: each line text is parsed once.

    With ``samples`` the parsed columns are expanded back to the block's
    rows; without, a fourth column holds each distinct line's count. Empty
    lines are dropped first, as numpy skips them. The distinct lines keep
    first-seen order, so the group ids are coded in the same order.
    """
    if samples:
        lines = list(filter(None, block.split("\n")))
        index = {line: i for i, line in enumerate(dict.fromkeys(lines))}
        at = np.fromiter(map(index.__getitem__, lines), np.intp, len(lines))
        return [c[at] for c in _parse_block("\n".join(index), dtype, codes)]
    counts = Counter(block.split("\n"))
    del counts[""]
    return [*_parse_block("\n".join(counts), dtype, codes), np.fromiter(counts.values(), np.intp, len(counts))]


def _parse_block(block: str, dtype: np.dtype, codes: _Codes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group codes, scores and labels of a block, from one ``np.loadtxt`` pass.

    Raises _Unclean where only ``csv`` may judge: a score outside [0, 1]
    or a label or ``withheld`` field other than exactly ``0`` or ``1``,
    which is then dropped. ``comments=None`` because ``csv`` gives ``#``
    no meaning; ``encoding=None`` so that numpy before 2.0 hands the id
    converter ``str``, not ``bytes``. Any warning is an error.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = np.loadtxt(
            io.StringIO(block), delimiter=",", dtype=dtype, converters={0: codes.__getitem__},
            comments=None, encoding=None, ndmin=1,
        )
    scores = table["score"]
    # Read as a little-endian uint16, an S2 field holding exactly "0" is 0x30 and "1" is 0x31.
    flags = [table[name].view("<u2") for name in dtype.names[2:]]
    if not (np.all((scores >= 0.0) & (scores <= 1.0)) and all(np.all((f == 0x30) | (f == 0x31)) for f in flags)):
        raise _Unclean
    return table["group"], scores, flags[0] == 0x31


def _add_block(group: np.ndarray, columns: list[np.ndarray], groups: list[_Rows | _Tally]) -> None:
    """Add each group's rows of a block (scores, labels and maybe counts) to that group, in file order."""
    if np.any(group[1:] < group[:-1]):  # the groups interleave
        order = np.argsort(group, kind="stable")
        columns = [c[order] for c in columns]
    ends = np.cumsum(np.bincount(group, minlength=len(groups))).tolist()
    for acc, lo, hi in zip(groups, [0, *ends], ends):
        if lo < hi:
            acc.add(*(c[lo:hi] for c in columns))


def _load_reference(path: str | Path) -> list[GroupData]:
    """Row-by-row ``csv`` parser: the reference for what ``load_csv`` accepts."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = _numbered_rows(fh)
        _, header = next(rows, (1, None))
        width = _header_width(header)
        if width is None:
            raise CsvFormatError(
                f"expected header {','.join(CSV_HEADER)!r} or {','.join(CSV_HEADER + (WITHHELD,))!r}, "
                f"got {header!r}"
            )
        by_group: dict[str, tuple[list[float], list[int]]] = {}
        for lineno, row in rows:
            if not row:
                continue
            if len(row) != width:
                raise CsvFormatError(f"row {lineno}: expected {width} columns, got {len(row)}")
            gid, score_text, label_text, *withheld = (cell.strip() for cell in row)
            try:
                score = float(score_text)
            except ValueError:
                raise CsvFormatError(f"row {lineno}: unparseable score {score_text!r}") from None
            if not 0.0 <= score <= 1.0:
                raise CsvFormatError(f"row {lineno}: score {score_text} outside [0, 1]")
            if label_text not in ("0", "1"):
                raise CsvFormatError(f"row {lineno}: label must be 0 or 1, got {label_text!r}")
            if withheld and withheld[0] not in ("0", "1"):
                raise CsvFormatError(f"row {lineno}: withheld must be 0 or 1, got {withheld[0]!r}")
            scores, labels = by_group.setdefault(gid, ([], []))
            scores.append(score)
            labels.append(int(label_text))
        if not by_group:
            raise CsvFormatError("no data rows")
    return _groups((gid, np.array(scores), np.array(labels)) for gid, (scores, labels) in by_group.items())


def _groups(parts: Iterable[tuple]) -> list[GroupData]:
    """One ``GroupData(*args)`` per part; its checks become CsvFormatError."""
    try:
        return [GroupData(*args) for args in parts]
    except ValueError as exc:
        raise CsvFormatError(str(exc)) from None


def _numbered_rows(fh: TextIO) -> Iterator[tuple[int, list[str]]]:
    """``csv`` records numbered from 1; what ``csv`` rejects raises CsvFormatError."""
    reader = csv.reader(fh)
    lineno = 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:  # a field longer than csv.field_size_limit()
            raise CsvFormatError(f"row {lineno}: {exc}") from None
        yield lineno, row
        lineno += 1


# Rows per chunk: large enough that numpy calls dominate the per-chunk
# overhead, small enough that the chunk's strings never set the peak memory.
_WRITE_CHUNK = 1 << 16

# One piece of a group's rows: scores, labels and, with a ``withheld``
# column, the mask (None reads 0), each a 1-d array of the same, non-zero length.
Chunk = tuple[np.ndarray, np.ndarray, "np.ndarray | None"]


def row_chunks(scores: np.ndarray, labels: np.ndarray, mask: np.ndarray | None = None) -> Iterator[Chunk]:
    """A group's columns in pieces of ``_WRITE_CHUNK`` rows, for ``write_rows``."""
    for lo in range(0, len(scores), _WRITE_CHUNK):
        chunk = slice(lo, lo + _WRITE_CHUNK)
        yield scores[chunk], labels[chunk], None if mask is None else mask[chunk]


def write_rows(
    path: str | Path, groups: Iterable[tuple[str, Iterable[Chunk]]], withheld: bool = False
) -> None:
    """Write each ``(group_id, chunks)`` pair's rows as CSV, chunk by chunk.

    This is the one row writer: ``write_csv`` and ``synth`` both feed it,
    and it holds one chunk's text at a time, however the chunks are made.
    Labels are 0/1 or bool; with ``withheld`` a fourth column holds each
    chunk's mask as 0/1. Nothing is checked here: callers check before
    they call, so that a bad input leaves no file behind.

    Each chunk formats each distinct score once: ``np.unique`` over the
    score bits (so ``-0.0`` and ``0.0`` keep their own text), one ``repr``
    per distinct value, and a table of whole lines that the rows index,
    one per (score, line ending) pair the chunk's rows use. So a chunk
    makes at most one line per row, however many line endings there
    are. ``repr`` is the shortest string that
    parses back to the identical float, and the bytes are those
    ``csv.writer`` writes with one ``repr`` per row; the id field comes
    from ``csv.writer`` itself, so ids are quoted as it quotes them.
    """
    suffixes = (",0", ",1") if withheld else ("",)
    ends = np.array([f",{label}{w}\r\n" for label in "01" for w in suffixes], dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(CSV_HEADER + (WITHHELD,) if withheld else CSV_HEADER)
        for group_id, chunks in groups:
            prefix = _row_prefix(group_id)
            for scores, labels, mask in chunks:
                keys, pair = np.unique(scores.view(np.uint64), return_inverse=True)
                text = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
                pair *= len(ends)  # each row's (score, line ending) pair, flattened
                pair += labels * len(suffixes)
                if mask is not None:
                    pair += mask
                used = np.zeros(len(keys) * len(ends), bool)
                used[pair] = True
                slots = np.flatnonzero(used)
                lines = text[slots // len(ends)] + ends[slots % len(ends)]  # each line after the id field
                rank = np.cumsum(used) - 1  # a used pair's place in lines
                fh.write(prefix)
                fh.write(prefix.join(lines[rank[pair]].tolist()))


def write_csv(
    groups: Sequence[GroupData], path: str | Path, withheld: Mapping[str, np.ndarray] | None = None
) -> None:
    """Write groups back to the CSV schema, round-tripping values exactly.

    Each group's samples go through ``write_rows`` in chunks of
    ``_WRITE_CHUNK`` rows. With ``withheld`` a fourth column holds each
    group's Monte Carlo withholding mask as 0/1; groups missing from the
    mapping were not post-processed and read 0. A mask whose length
    differs from its group's, or that holds a value other than 0 or 1
    (such as 0.5 or NaN), raises ValueError before the file is opened, as
    does a group that holds only its atom table.
    """
    rows = [g.samples() for g in groups]
    masks = [None if withheld is None else _withheld_mask(g, withheld) for g in groups]
    parts = ((g.group_id, row_chunks(*r, mask)) for g, r, mask in zip(groups, rows, masks))
    write_rows(path, parts, withheld is not None)


def _withheld_mask(g: GroupData, withheld: Mapping[str, np.ndarray]) -> np.ndarray | None:
    """The group's mask as bool, after checking its values as given."""
    mask = withheld.get(g.group_id)
    if mask is None:
        return None
    mask = np.asarray(mask)
    if mask.shape != (len(g),) or not _binary(mask):
        raise ValueError(
            f"withheld mask for group {g.group_id!r} must hold {len(g)} values of 0 or 1"
        )
    return mask == 1


def _row_prefix(group_id: str) -> str:
    """The id field and its comma, quoted exactly as ``csv.writer`` quotes it."""
    buf = io.StringIO()
    csv.writer(buf).writerow((group_id, ""))
    return buf.getvalue()[: -len("\r\n")]


def _whole(value, name: str = "value") -> int:
    """``value`` as an int: an integer, or a float that holds one such as ``1e6``; a bool is not a number here."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one seeded synthetic group.

    Families:
      * ``point_mass``: params ``(p,)``, every score equals p.
      * ``grid``: params ``(lo, hi, k)``, scores drawn uniformly from k
        evenly spaced values in [lo, hi]; k may be at most 10**8.
      * ``beta_grid``: params ``(a, b, bins)``, Beta(a, b) draws snapped to
        the midpoints of ``bins`` equal-width bins, keeping the support
        finite. ``a`` and ``b`` must be finite, and ``bins`` may be at most
        2**53, the largest count whose bin indices are exact in float.

    ``n`` may be at most 10**8 and ``seed`` must be non-negative. ``k``
    and ``bins`` must be whole numbers; a float such as ``1e6`` counts as
    the integer it holds.
    ``miscalibration_shift`` offsets the label probability at each score
    and must be finite; the emitted score itself is never shifted.
    """

    n: int
    family: str
    params: tuple[float, ...]
    miscalibration_shift: float = 0.0
    seed: int = 0
    group_id: str = "synth"

    def __post_init__(self) -> None:
        if not 1 <= self.n <= _MAX_SYNTH_N:
            raise ValueError(f"n must lie in [1, {_MAX_SYNTH_N}], got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not np.isfinite(self.miscalibration_shift):
            raise ValueError(f"miscalibration_shift must be finite, got {self.miscalibration_shift}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        p = self.params
        if self.family == "point_mass":
            if len(p) != 1 or not 0.0 <= p[0] <= 1.0:
                raise ValueError("point_mass takes a single value in [0, 1]")
        elif self.family == "grid":
            if len(p) != 3 or not (0.0 <= p[0] <= p[1] <= 1.0 and 1 <= p[2] <= _MAX_GRID_K):
                raise ValueError(f"grid takes (lo, hi, k) with 0 <= lo <= hi <= 1, 1 <= k <= {_MAX_GRID_K}")
            _whole(p[2], "grid k")
        else:
            if len(p) != 3 or not (p[0] > 0.0 and p[1] > 0.0 and 1 <= p[2] <= 2**53):
                raise ValueError("beta_grid takes (a, b, bins) with a, b > 0, 1 <= bins <= 2**53")
            if not np.isfinite(p[:2]).all():
                raise ValueError(f"beta_grid takes finite a and b, got {p}")
            _whole(p[2], "beta_grid bins")


def _draw_scores(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """The group's scores, drawn ``_WRITE_CHUNK`` at a time into one array.

    Each draw takes its values from the stream in order, so the pieces
    hold the values one whole-array draw gives, and the draw temporaries
    are one chunk's.
    """
    if spec.family == "point_mass":
        return np.full(spec.n, float(spec.params[0]))
    if spec.family == "grid":
        lo, hi, k = spec.params
        k = int(k)

        def draw(m: int) -> np.ndarray:  # as rng.choice(np.linspace(lo, hi, k), size=m) draws
            return _linspace_at(lo, hi, k, rng.integers(0, k, size=m))

    else:
        a, b, bins = spec.params
        bins = int(bins)

        def draw(m: int) -> np.ndarray:
            return (np.minimum((rng.beta(a, b, size=m) * bins).astype(int), bins - 1) + 0.5) / bins

    scores = np.empty(spec.n)
    for start in range(0, spec.n, _WRITE_CHUNK):
        out = scores[start : start + _WRITE_CHUNK]
        out[:] = draw(len(out))
    return scores


def _linspace_at(lo: float, hi: float, k: int, index: np.ndarray) -> np.ndarray:
    """``np.linspace(lo, hi, k)[index]`` without the table: each value from the same float operations."""
    delta = np.float64(hi) - np.float64(lo)
    values = index.astype(np.float64)
    if k == 1:
        values *= delta
    elif delta / (k - 1) == 0:  # a step that underflows: linspace divides first
        values /= k - 1
        values *= delta
    else:
        values *= delta / (k - 1)
    values += lo
    if k > 1:
        values[index == k - 1] = hi
    return values


def _label_probs(scores: np.ndarray, shift: float) -> np.ndarray:
    """Each label's chance of being 1: clamp(score + shift) to [0, 1]."""
    if shift == 0.0:
        return scores  # scores lie in [0, 1] already
    probs = scores + shift
    return np.clip(probs, 0.0, 1.0, out=probs)


@dataclass(frozen=True, eq=False)
class SynthGroup:
    """A synthetic group, drawn from its spec and checked, ready for ``write_rows``.

    Draws the scores ``_WRITE_CHUNK`` at a time into one array, the 8
    bytes a row it holds. Raises ValueError if the mean label probability
    is 0 or 1 (a degenerate spec) or if the labels hold a single class,
    worded as ``GroupData`` words it. The mean is numpy's pairwise sum
    over the whole probability array, so the check does not depend on
    the chunk size; with a shift that array costs 8 bytes a row more
    while the check runs. The labels are counted for ``base_rate`` and
    dropped: the generator state after the score draws is kept, and
    ``chunks`` draws the same labels again, a chunk at a time.
    """

    spec: SynthSpec
    scores: np.ndarray = field(init=False)
    base_rate: float = field(init=False)
    _label_rng: np.random.Generator = field(init=False, repr=False)  # where the label draws start

    def __post_init__(self) -> None:
        spec = self.spec
        rng = np.random.default_rng(spec.seed)
        scores = _draw_scores(spec, rng)
        mean_prob = float(_label_probs(scores, spec.miscalibration_shift).mean())
        if mean_prob <= 0.0 or mean_prob >= 1.0:
            raise ValueError(
                "degenerate synthetic spec: labels would be single-class in expectation"
            )
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "_label_rng", rng)
        positives = sum(int(np.count_nonzero(labels)) for _, labels, _ in self.chunks())
        object.__setattr__(self, "base_rate", _base_rate(spec.group_id, positives, spec.n))

    def chunks(self) -> Iterator[Chunk]:
        """``(scores, labels, None)`` in pieces of ``_WRITE_CHUNK`` rows, for ``write_rows``."""
        rng = copy.deepcopy(self._label_rng)
        for lo in range(0, self.spec.n, _WRITE_CHUNK):
            scores = self.scores[lo : lo + _WRITE_CHUNK]
            probs = _label_probs(scores, self.spec.miscalibration_shift)
            yield scores, rng.random(len(scores)) < probs, None


def synth(spec: SynthSpec) -> GroupData:
    """Generate a group with labels drawn at clamp(score + shift).

    With shift 0 the labels are Bernoulli draws at the score itself, so the
    population calibration gap is zero; otherwise it equals |shift|
    wherever no clamping occurs. Deterministic for a fixed spec (numpy
    PCG64 under the given seed). The draws are those of ``SynthGroup``,
    which ``calparity synth`` writes without building a GroupData.
    """
    drawn = SynthGroup(spec)
    labels = np.concatenate([labels for _, labels, _ in drawn.chunks()])
    return GroupData(spec.group_id, drawn.scores, labels)
