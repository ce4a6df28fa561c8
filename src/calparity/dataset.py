"""Grouped score/label data and its CSV ingestion.

A group's scores are probabilistic classifier outputs in [0, 1] and its
labels the observed binary outcomes. Both classes must be present in every
group so the base rate stays strictly inside (0, 1). Every group statistic
depends on the samples only through the group's atom table: its distinct
scores, each with a count of negatives and positives. A group that keeps
its rows holds each as a code into its table of distinct score bit
patterns, and a bool label; the atom table is that bit table pooled by
value. ``load_csv`` reads any input, a pipe too, into those tables a block
at a time. Without the rows, each code stands for a count of rows, and a
group's codes fold into one count per distinct pattern as they come. A
Monte Carlo draw or an equalized-odds flip maps the bit table, and
``writer.write_rows`` formats rows from a table and codes.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import io
import os
import stat
import threading
import warnings
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

CSV_HEADER = ("group", "score", "label")
# The fourth column a Monte Carlo output carries; it is read, checked and dropped.
WITHHELD = "withheld"


class CsvFormatError(ValueError):
    """Input CSV does not match the ``group,score,label`` schema."""


def pool_atoms(values: np.ndarray, *weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """Merge equal non-negative values: the distinct ones, ascending (``-0.0`` as ``0.0``), and each weight summed.

    Values already distinct and ascending come back as they are, with their weights.
    """
    values = values + 0.0
    if np.all(values[1:] > values[:-1]):
        return (values, *weights)
    merged, codes = _bit_codes(values)
    return (merged, *(np.bincount(codes, weights=w, minlength=merged.size) for w in weights))


def _code_dtype(size: int) -> np.dtype:
    """The smallest unsigned dtype that holds every code into a table of ``size`` entries."""
    return np.min_scalar_type(max(size - 1, 0))


def _bit_codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct bit patterns of 8-byte ``keys``, ascending as uint64, in the keys' dtype, and each key's code."""
    order = np.argsort(keys.view(np.uint64))  # numpy's unique and its inverse, in about half the memory
    bits = keys.view(np.uint64)[order]
    new = np.ones(len(bits), bool)  # each pattern's first place
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    bits = bits[new]
    new[:1] = False
    codes = np.empty(len(order), _code_dtype(len(bits)))
    codes[order] = np.cumsum(new, dtype=codes.dtype)
    return bits.view(keys.dtype), codes


@dataclass(frozen=True, eq=False, init=False)
class GroupData:
    """One population group: its atom table, and its rows where they are kept.

    ``atoms`` is ``(values, negatives, positives)``: the distinct scores
    that hold samples, ascending, ``-0.0`` counted at ``0.0``, and the
    count of samples of each class at each, as floats; every group
    statistic depends on the samples only through it. Built from
    ``scores`` and ``labels``, or loaded with its samples, a group keeps
    ``rows()``: its distinct score bit patterns as a float table (a
    ``-0.0`` row keeps its text), each row's code into it (the smallest
    unsigned dtype that fits) and each row's bool label. ``scores``
    (float64) and ``labels`` (int64) are built from the rows on each read.
    Labels must equal 0 or 1 as given, so 0.5 or NaN is rejected, not
    truncated. Built from ``table`` alone, a group holds no rows:
    ``scores`` and ``labels`` are None and ``rows()`` and ``samples()``
    raise, and its counts must be whole, non-negative and total below
    2**45. One routine, ``_fill``, checks and counts every form. Every
    array is frozen, so instances are safe to share.
    """

    group_id: str
    atoms: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    base_rate: float
    _rows: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(repr=False)
    _size: int = field(repr=False)

    def __init__(self, group_id: str, scores=None, labels=None, table=None) -> None:
        if table is None:
            # Labels are copied: a bool array would be kept, and its owner could write to it.
            scores, labels = np.asarray(scores, dtype=float), np.array(labels)
            if scores.ndim != 1 or labels.shape != scores.shape:
                raise ValueError("scores and labels must be 1-d arrays of equal length")
            self._fill(group_id, *_bit_codes(scores), labels)
            return
        if scores is not None or labels is not None:
            raise ValueError("give a group samples or an atom table, not both")
        values, negatives, positives = (np.asarray(a, dtype=float) for a in table)
        if values.ndim != 1 or negatives.shape != values.shape or positives.shape != values.shape:
            raise ValueError("atom table columns must be 1-d arrays of equal length")
        if np.any(values[1:] <= values[:-1]):
            raise ValueError("atom table values must be distinct and ascending")
        counts = np.concatenate([negatives, positives])
        if not (np.all((counts >= 0) & (counts == np.floor(counts))) and counts.sum() < 2**45):  # NaN fails too
            raise ValueError(f"group {group_id!r} needs whole, non-negative counts that total below 2**45")
        codes = np.tile(np.arange(len(values)), 2)  # two per value, its negatives' and its positives', weighted
        self._fill(group_id, values, codes, np.arange(len(codes)) >= len(values), counts, keep=False)

    @classmethod
    def _coded(cls, group_id: str, *rows, keep: bool = True) -> GroupData:
        """A new group, built by ``_fill`` from ``(table, codes, labels[, weights])``."""
        g = cls.__new__(cls)
        g._fill(group_id, *rows, keep=keep)
        return g

    def _fill(self, group_id: str, table: np.ndarray, codes: np.ndarray, labels: np.ndarray, weights=None,
              keep: bool = True) -> None:
        """Check rows (codes into ``table``, whose values may repeat, and labels), each standing for its weight
        if given; count them into atoms and set the fields, keeping the rows with ``keep``. Arrays are frozen."""
        size = len(codes) if weights is None else int(weights.sum())
        if size == 0:
            raise ValueError(f"group {group_id!r} has no samples")
        if not np.all((table >= 0.0) & (table <= 1.0)):  # NaN fails too
            raise ValueError(f"group {group_id!r} has scores outside [0, 1]")
        if labels.dtype != bool:
            if not _binary(labels):
                raise ValueError(f"group {group_id!r} has non-binary labels")
            labels = labels == 1
        atoms = tuple(map(_frozen, _count(table, codes, labels, weights)))
        rows = tuple(map(_frozen, (table, codes, labels))) if keep else None
        base_rate = _base_rate(group_id, atoms[2].sum(), size)
        for name, value in dict(group_id=group_id, atoms=atoms, base_rate=base_rate, _rows=rows, _size=size).items():
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self._size

    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(table, codes, labels)``; ValueError naming the group if only its atom table was kept."""
        if self._rows is None:
            raise ValueError(f"group {self.group_id!r} was loaded without its samples, which this needs")
        return self._rows

    @property
    def scores(self) -> np.ndarray | None:
        return None if self._rows is None else _frozen(self._rows[0][self._rows[1]])

    @property
    def labels(self) -> np.ndarray | None:
        return None if self._rows is None else _frozen(self._rows[2].astype(np.int64))

    def samples(self) -> tuple[np.ndarray, np.ndarray]:
        """``(scores, labels)``; ValueError naming the group if only its atom table was kept."""
        self.rows()
        return self.scores, self.labels


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _pair_counts(size: int, codes: np.ndarray, labels: np.ndarray, weights=None) -> np.ndarray:
    """The rows of each (entry, label) pair, at ``code * 2 + label``: one ``np.bincount``, weighted if given."""
    pair = codes.astype(np.intp)
    pair *= 2
    pair += labels
    return np.bincount(pair, weights, minlength=2 * size)


def _count(table: np.ndarray, codes: np.ndarray, labels: np.ndarray, weights=None) -> tuple[np.ndarray, ...]:
    """The atom table of coded rows, each standing for its weight if given: ``_pair_counts`` pooled by value."""
    counts = _pair_counts(len(table), codes, labels, weights).reshape(-1, 2).T.astype(float, order="C")
    seen = counts.any(axis=0)
    if not seen.all():  # an unused entry holds no atom
        table, counts = table[seen], counts[:, seen]
    return pool_atoms(table, *counts)  # pools a zero of each sign and a repeated entry


def _binary(a: np.ndarray) -> bool:
    """Every value equals 0 or 1; checked before any cast, which would truncate 0.5 to 0."""
    return bool(np.all((a == 0) | (a == 1)))


def _base_rate(group_id: str, positives: float, size: int) -> float:
    """The mean label; ValueError naming the group if it holds a single class."""
    mu = float(positives) / size
    if not 0.0 < mu < 1.0:
        raise ValueError(f"group {group_id!r} contains a single class (base rate {mu})")
    return mu


# Entries a row-free group takes in before it folds them (or twice its
# distinct patterns, if more): large enough that sorting dominates the
# per-fold cost, small enough that one fold's arrays stay about a MB.
_ATOM_CHUNK = 1 << 16


class _Coded:
    """A group's rows as read: uint32 codes into a table of score bit patterns, and bool labels.

    The table holds one pattern per entry (a block's distinct line or
    ``csv`` record, or a row of a block parsed whole). With ``keep`` each
    code is a row. Without, each stands for a count of rows, one unless
    given (counts are stored from the first code given one), and every
    ``_ATOM_CHUNK`` entries, or twice the distinct patterns if more, the
    codes fold into one per distinct bit pattern and label present,
    counting its rows, so memory follows the distinct scores. Folds and
    ``group`` renumber the codes by one sort of the table and one gather,
    and ``group`` passes them, uncopied, to ``GroupData._coded`` to count.
    Buffers grow in place: a list of pieces left freed holes, ~6 MB on 1e6
    rows.
    """

    def __init__(self, keep: bool) -> None:
        self.keep, self.folded = keep, 0  # the patterns the last fold left
        self.table, self.codes, self.labels, self.counts = bytearray(), bytearray(), bytearray(), bytearray()

    def extend(self, bits: np.ndarray) -> np.ndarray:
        """Add entries' score bit patterns to the table; their codes."""
        start = self._start(len(bits))
        self.table += bits.tobytes()
        return np.arange(start, start + len(bits))

    def _start(self, entries: int) -> int:
        """The code of the next entry; CsvFormatError if ``entries`` more would pass uint32 codes."""
        start = len(self.table) // 8
        if start + entries > 2**32:  # only a group of more rows than that gets here
            raise CsvFormatError(f"a group has more than {2**32} rows, too many to keep")
        return start

    def add(self, codes: np.ndarray, labels: np.ndarray, counts: np.ndarray | None = None) -> None:
        """Add codes, their labels and, row-free, the rows each stands for (None: one each)."""
        if counts is not None:
            self._count_ones()
            self.counts += counts.astype(float).tobytes()
        self.codes += codes.tobytes()
        self.labels += labels.tobytes()
        if not self.keep and len(self.table) // 8 - self.folded >= max(_ATOM_CHUNK, 2 * self.folded):
            self.fold()

    def _count_ones(self) -> None:
        """Store the count of the codes that stand for one row each, so that later counts line up with their codes."""
        self.counts += np.ones(len(self.labels) - len(self.counts) // 8).tobytes()

    def fold(self) -> None:
        """Fold the codes into one per distinct bit pattern and label present, counting its rows."""
        table, *rows = self._rows()
        per_pair = _pair_counts(len(table), *rows)
        pair = np.flatnonzero(per_pair)  # the (pattern, label) pairs with rows, at 2 * pattern + label
        self.table, self.folded = bytearray(table.tobytes()), len(table)
        self.codes = bytearray((pair >> 1).astype(np.uint32).tobytes())
        self.labels = bytearray((pair & 1).astype(bool).tobytes())
        self.counts = bytearray(per_pair[pair].astype(float).tobytes())

    def buffers(self) -> tuple[bytearray, ...]:
        """The table, codes, labels and counts, as stored."""
        return self.table, self.codes, self.labels, self.counts

    def take(self, pipe: BinaryIO, sizes: Sequence[int]) -> None:
        """Append another accumulator's ``buffers``, of ``sizes`` bytes, read from ``pipe`` a piece at a time.

        Its codes move past this table's entries, and its counts follow the
        counts of this accumulator's codes. EOFError if the pipe ends first.
        """
        start = self._start(sizes[0] // 8)
        if sizes[3]:
            self._count_ones()
        for buf, size in zip(self.buffers(), sizes):
            for piece_size in [_PIECE] * (size // _PIECE) + [size % _PIECE]:
                piece = _read_exactly(pipe, piece_size)
                buf += (np.frombuffer(piece, np.uint32) + np.uint32(start)).tobytes() if buf is self.codes else piece

    def _rows(self) -> tuple[np.ndarray, ...]:
        """Distinct patterns as floats, codes renumbered into them, labels, and each code's rows (None: one each)."""
        table, rank = _bit_codes(np.frombuffer(self.table, np.float64))
        codes = rank[np.frombuffer(self.codes, np.uint32)]
        self.table = self.codes = None  # freed before the rows are counted
        labels, weights = np.frombuffer(self.labels, bool), None
        if self.counts:  # the codes past the stored counts stand for one row each
            weights = np.ones(len(labels))
            weights[: len(self.counts) // 8] = np.frombuffer(self.counts)
        return table, codes, labels, weights

    def group(self, group_id: str) -> GroupData:
        return GroupData._coded(group_id, *self._rows(), keep=self.keep)


def load_csv(path: str | Path, samples: bool = True) -> list[GroupData]:
    """Read a ``group,score,label`` CSV into one GroupData per group, in first-seen order.

    With ``samples`` each group keeps its rows in file order; without, each
    group holds only its atom table, and memory is bounded by the number
    of distinct scores instead of rows. A fourth ``withheld`` column, as a
    Monte Carlo output has, must hold 0 or 1 in every row and is dropped.
    A leading UTF-8 byte order mark is skipped. Raises CsvFormatError with
    the offending row number for schema violations, out-of-range scores,
    non-binary labels, text that is not UTF-8, and single-class groups.

    The input is read once, in chunks, so a pipe reads as a file does. Rows
    reach their group a block at a time (``_entries``), so on every input
    memory follows one block and the groups' tables. Kept rows are codes
    into their group's bit table, never floats. Without ``samples`` each
    code stands for an entry's rows, and one accumulator, ``_Coded``, folds
    a group's codes into counts per distinct pattern as they come. Either
    way its codes are counted by the one build of every ``GroupData``.

    A regular file of at least ``_SPLIT`` chunks is read by two processes
    when this one may run on two CPUs and runs no other thread, since a
    fork of a threaded process is unsafe (``_Tail``). A forked child parses
    the lines from the first ``\\n`` at or after the middle byte to the end
    column-wise, while this process parses the head. The child's groups are
    added after the head's only if the head and the tail both parsed
    column-wise to their ends. Otherwise this process reads on past the
    middle alone, as it reads any other input, so every group, message and
    row number is the one reader's. The child is reaped before this returns
    or raises.
    """
    groups = _Groups(samples)
    with open(path, "rb") as fh, _Tail(fh, path, samples) as tail:
        for entries in _entries(_decoded(fh, tail.mid), groups.ids):
            if entries is None:  # at ``tail.mid``, every line before it parsed column-wise
                if groups.merge(tail.pipe):  # False if the child sent no whole, clean tail
                    break
            else:
                groups.add(entries)
    return groups.build()


class _Groups:
    """Each group id's code, in first-seen order, and its ``_Coded`` accumulator."""

    def __init__(self, keep: bool) -> None:
        self.keep, self.ids, self.accs = keep, _Codes(), []

    def add(self, entries: list) -> None:
        """Add a block's entries, as ``_entries`` yields them, to their groups."""
        self.accs.extend(_Coded(self.keep) for _ in range(len(self.ids) - len(self.accs)))
        for acc, pieces in _by_group(*_code_rows(*entries, self.accs, self.keep), self.accs):
            acc.add(*pieces)

    def send(self, fd: int) -> None:
        """Write the groups to ``fd``, row-free ones folded: the count of ids and their length, the ids, each
        buffer's length and the buffers. Columnar ids are ASCII and hold no ``\\n``."""
        if not self.keep:
            for acc in self.accs:
                acc.fold()
        names = "\n".join(self.ids).encode()
        buffers = [buf for acc in self.accs for buf in acc.buffers()]
        with open(fd, "wb") as pipe:
            pipe.write(np.array([len(self.ids), len(names)], np.int64).tobytes() + names)
            pipe.write(np.array([len(buf) for buf in buffers], np.int64).tobytes())
            for buf in buffers:
                pipe.write(buf)

    def merge(self, pipe: BinaryIO) -> bool:
        """Append the groups ``send`` wrote to ``pipe``, ids new here coded after these; False, adding none, if the
        pipe ends before they do."""
        known, marks = len(self.ids), [[len(buf) for buf in acc.buffers()] for acc in self.accs]
        try:
            count, size = np.frombuffer(_read_exactly(pipe, 16), np.int64).tolist()
            names = _read_exactly(pipe, size).decode().split("\n")
            sizes = np.frombuffer(_read_exactly(pipe, 32 * count), np.int64).reshape(-1, 4).tolist()
            for gid, acc_sizes in zip(names, sizes):
                code = self.ids[gid]
                self.accs.extend(_Coded(self.keep) for _ in range(len(self.ids) - len(self.accs)))
                self.accs[code].take(pipe, acc_sizes)
        except EOFError:
            while len(self.ids) > known:
                self.ids.popitem()
            del self.accs[known:]
            for acc, mark in zip(self.accs, marks):
                for buf, size in zip(acc.buffers(), mark):
                    del buf[size:]
            return False
        return True

    def build(self) -> list[GroupData]:
        if not self.ids:
            raise CsvFormatError("no data rows")
        self.accs.reverse()  # each is popped as its group is built, so its buffers go before the next group's
        try:
            return [self.accs.pop().group(gid) for gid in self.ids]
        except ValueError as exc:  # a failed GroupData check
            raise CsvFormatError(str(exc)) from None


def _read_exactly(pipe: BinaryIO, size: int) -> bytes:
    """``size`` bytes of ``pipe``; EOFError if it ends first."""
    data = pipe.read(size)
    if len(data) < size:
        raise EOFError
    return data


# A regular file of at least this many chunks (2 MiB) is parsed by two
# processes. On a 2-vCPU VM a split costs ~8 ms (fork, merge and reaping):
# ``stats`` broke even on a 2.9 MB file of 29 distinct scores and on a
# 1.5 MB file of distinct scores, which parses ~2.5x slower a byte.
_SPLIT = 8
_PIECE = 1 << 16  # bytes a merge reads from the pipe at a time; a multiple of 8


class _Tail:
    """The child that parses a large file from ``mid`` to its end, if one was forked; ``mid`` is None if not.

    ``mid`` follows the first ``\\n`` at or after the middle byte. The child
    opens the file itself, since a forked child shares this process's file
    offset, learns the width from the header and parses from ``mid`` with
    ``_entries``, which raises at the first block that is not columnar.
    Only a whole, clean tail is sent, through a pipe (``_Groups.send``);
    then the child leaves by ``os._exit``, so no exit hook or buffer flush
    of this process runs twice. On leaving the ``with`` block, the child is
    killed if it still runs, and reaped (by the kernel, where SIGCHLD is
    ignored).
    """

    def __init__(self, fh: BinaryIO, path: str | Path, keep: bool) -> None:
        self.mid, self.pid = _middle(fh), None
        if self.mid is None:
            return
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:  # no process to be had, as under a process limit: one reader
            os.close(read), os.close(write)
            self.mid = None
            return
        if self.pid == 0:
            try:
                os.close(read)
                _parse_tail(path, self.mid, keep, write)
            finally:
                os._exit(0)
        os.close(write)
        self.pipe = open(read, "rb")

    def __enter__(self) -> _Tail:
        return self

    def __exit__(self, *exc) -> None:
        if self.pid:
            from signal import SIGKILL

            self.pipe.close()
            with contextlib.suppress(ChildProcessError, ProcessLookupError):  # reaped already: SIGCHLD is ignored
                if os.waitpid(self.pid, os.WNOHANG) == (0, 0):  # still running
                    os.kill(self.pid, SIGKILL)
                    os.waitpid(self.pid, 0)


def _middle(fh: BinaryIO) -> int | None:
    """Where the tail of a file ``fh`` to be split starts: the ``_line_start`` at its middle byte.

    None unless it is a regular file of at least ``_SPLIT`` chunks, this
    process may run on two CPUs and runs one thread, and a ``\\n`` follows
    the middle byte.
    """
    size = os.fstat(fh.fileno())
    if not (stat.S_ISREG(size.st_mode) and size.st_size >= _SPLIT * _CHUNK and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1):
        return None
    try:
        return _line_start(fh, size.st_size // 2)
    finally:
        fh.seek(0)


def _line_start(fh: BinaryIO, at: int) -> int | None:
    """The offset after the first ``\\n`` at or after ``at``; None if there is none, as in a file of bare ``\\r``s."""
    fh.seek(at)
    for piece in iter(partial(fh.read, _PIECE), b""):
        if b"\n" in piece:
            return at + piece.index(b"\n") + 1
        at += len(piece)
    return None


def _parse_tail(path: str | Path, mid: int, keep: bool, fd: int) -> None:
    """The child's work: parse ``path`` from ``mid`` column-wise and ``send`` its groups to ``fd``."""
    groups = _Groups(keep)
    with open(path, "rb") as fh:
        dtype = _dtype(fh.readline().decode("utf-8-sig", "surrogateescape").removesuffix("\n"))
        fh.seek(mid)
        for entries in _entries(_decoded(fh, encoding="utf-8"), groups.ids, dtype):
            groups.add(entries)
    groups.send(fd)


def _header_width(header: Sequence[str] | None) -> int | None:
    """3 or 4, the columns a header names, or None if it is not ours."""
    names = None if header is None else tuple(h.strip() for h in header)
    return len(names) if names in (CSV_HEADER, CSV_HEADER + (WITHHELD,)) else None


_CHUNK = 1 << 18  # bytes of input read, decoded and parsed at a time
_ROW_CHUNK = 1 << 10  # records ``csv`` reads and checks at a time

# Group ids are coded to dense ints through a converter, not read as a
# fixed-width string column, which would truncate long ids silently and
# cost more memory. ``S2`` labels keep ``10`` from passing as ``1``.
_ROW = np.dtype([("group", "i4"), ("score", "f8"), ("label", "S2"), (WITHHELD, "S2")])


class _Codes(dict):
    """Maps each key (a group id, a line) to a dense int in first-seen order."""

    def __missing__(self, key) -> int:
        code = self[key] = len(self)
        return code


class _Unclean(Exception):
    """The text holds something numpy would read differently from ``csv``."""


def _decoded(fh: BinaryIO, mid: int | None = None, encoding: str = "utf-8-sig") -> Iterator[str]:
    """The input as text from where ``fh`` stands, ``_CHUNK`` bytes at a time, line ends as written.

    ``utf-8-sig`` drops a leading BOM. No chunk is empty but one, at
    offset ``mid`` if given, a line start where the reader may stop.
    """
    decoder = codecs.getincrementaldecoder(encoding)("surrogateescape")  # a byte not UTF-8: a lone surrogate
    if mid is not None:
        yield from filter(None, map(decoder.decode, iter(lambda: fh.read(min(_CHUNK, mid - fh.tell())), b"")))
        yield ""
    yield from filter(None, map(decoder.decode, iter(partial(fh.read, _CHUNK), b"")))  # holding no chunk's bytes
    yield from filter(None, [decoder.decode(b"", final=True)])


def _dtype(header: str) -> np.dtype:
    """The rows' dtype under a header line, its ``\\n`` dropped; _Unclean if the header is not ours or holds a
    ``\\r`` but a last, which numpy reads no header to refuse."""
    width = _header_width(header.split(","))
    if width is None or "\r" in header[:-1]:
        raise _Unclean
    return _ROW if width == 4 else np.dtype(_ROW.descr[:3])


def _entries(chunks: Iterator[str], ids: _Codes, dtype: np.dtype | None = None) -> Iterator[list | None]:
    """The rows a block at a time: entries' group codes, scores and labels, and each row's entry (None: one each).

    Blocks of whole lines parse column-wise (``_repetitive`` ones by their
    distinct lines), to the rows ``csv`` reads, up to the first refused:
    where ``_cut`` finds text only ``csv`` may read, the header is not ours,
    a row is not plain ``id,float,0|1`` (``,0|1`` more under ``withheld``)
    scored in [0, 1], or a new id has surrounding whitespace. Its new ids
    are dropped; ``_read_rows`` reads it, from its first line, and the rest.
    Given ``dtype``, the text starts after the header, at a line whose
    number is unknown, so a refused block raises _Unclean instead. Only a
    block numpy refuses that holds ``\\r\\r`` is parsed again with every bare
    ``\\r`` read as a line end, as ``csv`` reads it, and its lines counted so.
    An empty chunk, which ``_decoded`` gives only at its ``mid``, yields
    None while no block was refused: every line before it is parsed.
    """
    numbered, lineno, tail = dtype is None, 1, ""  # the number of the line ``tail`` starts
    for chunk in chain(chunks, [None]):  # None reads the last line
        if chunk == "":
            yield None
            continue
        text, start, known = tail + (chunk or ""), lineno, len(ids)
        try:
            block, tail = _cut(text, final=chunk is None)
            if dtype is None and (block or chunk is None):
                header, _, block = block.partition("\n")
                dtype, lineno = _dtype(header), 2
            if not block.strip("\r\n"):  # numpy skips empty lines, and warns if that is all
                lineno += block.count("\n") + block.count("\r") - block.count("\r\n")  # each end as csv reads it
                continue
            try:
                lines, entries = _parse(block, dtype, ids)
            except ValueError:  # numpy refuses a bare \r, which csv reads as a line end
                if "\r\r" not in block:
                    raise
                # its ids are coded in the same order again
                _, entries = _parse(block.replace("\r\n", "\n").replace("\r", "\n"), dtype, ids)
                lines = block.count("\n") + block.count("\r") - block.count("\r\n")
            if any(gid != gid.strip() for gid in islice(ids, known, None)):
                raise _Unclean
        except (_Unclean, ValueError, Warning):
            if not numbered:
                raise _Unclean from None
            while len(ids) > known:
                ids.popitem()
            yield from _read_rows(chain([text], chunks), start, None if start == 1 else len(dtype), ids)
            return
        yield entries
        lineno += lines


def _cut(text: str, final: bool) -> tuple[str, str]:
    """``text`` as whole lines and the rest (none if ``final``), or _Unclean where only ``csv`` may read it.

    Lines end at ``\\n``, or in text without one at a bare ``\\r`` but a last
    (it may start a ``\\r\\n``), written ``\\n`` as numpy reads no bare one.
    _Unclean at a non-ASCII character, a quote (which ``csv`` strips and
    numpy keeps), NUL (which numpy strips from byte strings) or a line
    longer than ``csv.field_size_limit()``, on which ``csv`` may raise.
    """
    if not text.isascii() or '"' in text or "\0" in text:
        raise _Unclean
    cut = text.rfind("\n") + 1
    if not cut and "\r" in text:
        cut = text.rfind("\r", 0, len(text) - 1) + 1
        text = text[:cut].replace("\r", "\n") + text[cut:]
    limit, start = csv.field_size_limit(), 0  # the start of a line
    while len(text) - start > limit:
        start = text.rfind("\n", start, start + limit + 1) + 1
        if not start:
            raise _Unclean
    return (text, "") if final else (text[:cut], text[cut:])


def _parse(block: str, dtype: np.dtype, codes: _Codes) -> tuple[int, list]:
    """The block's count of ``\\n`` and its entries, from its distinct lines if it is ``_repetitive``."""
    if _repetitive(block):
        lines, *entries = _parse_distinct(block, dtype, codes)
        return lines, entries
    return block.count("\n"), [*_parse_block(block, dtype, codes), None]


# Lines of a block the probe reads; a parse of many thousand lines costs far more.
_PROBE = 1 << 10


def _repetitive(block: str) -> bool:
    """At least half of the block's first ``_PROBE`` lines repeat an earlier one."""
    head = block.split("\n", _PROBE)[:_PROBE]
    return 2 * len(set(head)) <= len(head)


def _parse_distinct(block: str, dtype: np.dtype, codes: _Codes) -> list[np.ndarray]:
    """The block's count of ``\\n``, ``_parse_block`` of its distinct lines, each parsed once, and each row's line.

    One hashing pass numbers the lines in first-seen order, so the ids are
    coded in that order. Empty lines (also ``\\r`` ones) go, as numpy skips them.
    """
    lines, index = block.split("\n"), _Codes()
    at = np.fromiter(map(index.__getitem__, lines), np.int32, len(lines))
    for empty in sorted([index.pop(e) for e in ("", "\r") if e in index], reverse=True):
        at = at[at != empty]  # the lines after it in first-seen order move down one
        at -= at > empty
    return [len(lines) - 1, *_parse_block("\n".join(index), dtype, codes), at]


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


def _by_group(group: np.ndarray, columns: list[np.ndarray], groups: list) -> Iterator[tuple]:
    """``(groups[g], pieces)`` for each group ``g`` present: its part of each column, in file order."""
    if np.any(group[1:] < group[:-1]):  # the groups interleave
        order = np.argsort(group, kind="stable")
        columns = [c[order] for c in columns]
    ends = np.cumsum(np.bincount(group, minlength=len(groups))).tolist()
    for acc, lo, hi in zip(groups, [0, *ends], ends):
        if lo < hi:
            yield acc, [c[lo:hi] for c in columns]


def _code_rows(group: np.ndarray, scores: np.ndarray, labels: np.ndarray, at, groups: list, keep: bool) -> tuple:
    """A block's ``(group, [codes, labels])`` per row; its entries (rows, or what ``at`` indexes) coded first.

    Without ``keep``, per entry instead, with the rows each distinct line stands for.
    """
    code = np.empty(len(group), np.uint32)
    for acc, (bits, index) in _by_group(group, [scores.view(np.uint64), np.arange(len(group))], groups):
        code[index] = acc.extend(bits)
    if at is None:
        return group, [code, labels]
    if keep:
        return group[at], [code[at], labels[at]]
    return group, [code, labels, np.bincount(at, minlength=len(group))]


def _read_rows(text: Iterable[str], lineno: int, width: int | None, ids: _Codes) -> Iterator[list]:
    """``_entries`` of ``text``, from line ``lineno`` (the header if ``width`` is None), as ``csv.reader`` reads it.

    Each record is checked as it is read, so the first fault in file order
    raises; the data rows reach their groups ``_ROW_CHUNK`` at a time.
    """
    rows = _numbered_rows(csv.reader(chain.from_iterable(_split_lines(text))), lineno)
    if width is None:
        header = next(rows, (lineno, None))[1]
        width = _header_width(header)
        if width is None:
            expected = " or ".join(repr(",".join(h)) for h in (CSV_HEADER, CSV_HEADER + (WITHHELD,)))
            raise CsvFormatError(f"expected header {expected}, got {header!r}")
    data = (_data_row(row, n, width) for n, row in rows if row)
    for piece in iter(lambda: list(islice(data, _ROW_CHUNK)), []):
        gids, scores, labels = zip(*piece)
        group = np.fromiter(map(ids.__getitem__, gids), np.intp, len(gids))
        yield [group, np.array(scores), np.array(labels), None]


def _numbered_rows(reader: Iterator[list[str]], lineno: int) -> Iterator[tuple[int, list[str]]]:
    """``csv`` records numbered from ``lineno``; what ``csv`` rejects raises CsvFormatError."""
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:  # a field longer than csv.field_size_limit()
            raise CsvFormatError(f"row {lineno}: {exc}") from None
        yield lineno, row
        lineno += 1


def _data_row(row: list[str], lineno: int, width: int) -> tuple[str, float, bool]:
    """A non-empty ``csv`` record's id, score and label; CsvFormatError naming row ``lineno`` if it is not a data row."""
    try:
        "".join(row).encode()
    except UnicodeEncodeError:  # a lone surrogate, which stands for a byte that is not UTF-8
        raise CsvFormatError(f"row {lineno}: not valid UTF-8") from None
    if len(row) != width:
        raise CsvFormatError(f"row {lineno}: expected {width} columns, got {len(row)}")
    group_id, score_text, label_text, *withheld = map(str.strip, row)
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
    return group_id, score, label_text == "1"


def _split_lines(text: Iterable[str]) -> Iterator[io.StringIO]:
    """Text given in pieces as streams of whole lines, ended as written; a last ``\\r`` waits for a ``\\n``."""
    rest = ""
    for piece in text:
        piece = rest + piece
        cut = max(piece.rfind("\n"), piece.rfind("\r", 0, len(piece) - 1)) + 1
        rest = piece[cut:]
        yield io.StringIO(piece[:cut], newline="")
    yield io.StringIO(rest, newline="")

