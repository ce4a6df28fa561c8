"""The one CSV row writer: rows formatted from a group's bit table and codes, a chunk at a time.

Only the commands that write rows import it (``--output`` runs, Monte
Carlo draws and ``synth``), so a read-only command never compiles it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import stat
from functools import partial
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .dataset import CSV_HEADER, WITHHELD, GroupData, _binary, _bit_codes, _Forked

# Rows per chunk: large enough that numpy calls dominate the per-chunk
# overhead, small enough that the chunk's strings never set the peak memory.
_WRITE_CHUNK = 1 << 16

# One piece of a group's rows: a float table, each row's code into it, the
# labels and, with a ``withheld`` column, the mask (None reads 0).
Chunk = tuple[np.ndarray, np.ndarray, np.ndarray, "np.ndarray | None"]


def row_chunks(table: np.ndarray, codes: np.ndarray, labels: np.ndarray, mask=None) -> Iterator[Chunk]:
    """A group's rows in pieces of ``_WRITE_CHUNK``, for ``write_rows``; each piece holds the whole table."""
    for lo in range(0, len(codes), _WRITE_CHUNK):
        chunk = slice(lo, lo + _WRITE_CHUNK)
        yield table, codes[chunk], labels[chunk], None if mask is None else mask[chunk]


# A forked child writes the rows after the middle chunk boundary when the
# chunks there may use this many table entries, each formatted once a
# chunk. On a 2-vCPU VM a fork paid from 2-4k entries: ``synth`` of two
# 100k-row groups of k grid scores, the second group written by the child,
# won 6 of 20 pairs at k = 256, 10 of 20 at k = 1024 and 16 of 20 at
# k = 2048 (~30 ms). This is twice the larger figure.
_FORK_ENTRIES = 1 << 13


def write_rows(
    path: str | Path, groups: Iterable[tuple[str, Iterable[Chunk]]], withheld: bool = False
) -> None:
    """Write each ``(group_id, chunks)`` pair's rows as CSV, chunk by chunk.

    This is the one row writer, and it holds one chunk's text at a time.
    A chunk is ``(table, codes, labels, mask)``: row i scores
    ``table[codes[i]]``; labels are bool or 0/1, as an array or as an
    object numpy turns into one where they are used (``SynthGroup`` holds
    them packed), and with ``withheld`` the mask is written as a fourth 0/1
    column. Every chunk is taken before a row is written. Nothing is
    checked here: callers check first, so a bad input leaves no file
    behind. The bytes are those ``csv.writer`` writes with one ``repr`` per
    row; the id field comes from ``csv.writer`` itself, so ids are quoted
    as it quotes them.

    Two processes write where the chunks after the chunk boundary nearest
    the middle row may use ``_FORK_ENTRIES`` table entries or more
    (``_cut``), the output is a regular file whose directory opens an
    unlinked ``O_TMPFILE`` file, and ``_Forked`` forks: this process may run
    on two CPUs and runs one thread. The child writes those rows into that
    file while this process writes the header and the rows before them;
    then this process appends the child's bytes with ``os.sendfile``. If the
    child sent no whole message (its file's size), this process writes
    those rows itself, so the bytes are the same either way.
    """
    suffixes = (",0", ",1") if withheld else ("",)
    ends = np.array([f",{label}{w}\r\n" for w in suffixes for label in "01"], dtype=object)
    rows = []  # each chunk with its group's id field
    for group_id, chunks in groups:
        prefix = _row_prefix(group_id)
        rows += [(prefix, chunk) for chunk in chunks]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(CSV_HEADER + (WITHHELD,) if withheld else CSV_HEADER)
        cut = _cut(rows)
        with _scratch(fh, path, cut < len(rows)) as tmp:
            with _Forked(None if tmp is None else partial(_write_tail, tmp, ends, rows[cut:])) as tail:
                _write(fh, ends, rows[:cut])
                if not (tail.pid and tail.receive(partial(_append, fh, tmp))):
                    _write(fh, ends, rows[cut:])


def _write(fh: TextIO, ends: np.ndarray, rows: list[tuple[str, Chunk]]) -> None:
    """Write each chunk's rows, its group's id field first on each."""
    for prefix, chunk in rows:
        fh.write(prefix)
        fh.write(prefix.join(_lines(ends, *chunk)))


def _cut(rows: list[tuple[str, Chunk]]) -> int:
    """The first chunk a child writes: the one after the chunk boundary nearest the middle row, if the chunks from it
    on may use ``_FORK_ENTRIES`` table entries or more; else ``len(rows)``.

    A chunk may use at most ``min(len(table), len(codes))`` entries: all of
    its table for a ``synth`` chunk, whose table holds its own scores.
    """
    if len(rows) < 2:
        return len(rows)
    stops = np.cumsum([len(chunk[1]) for _, chunk in rows])  # the rows up to each chunk's end
    cut = int(np.argmin(np.abs(2 * stops[:-1] - stops[-1]))) + 1
    if sum(min(len(table), len(codes)) for _, (table, codes, *_) in rows[cut:]) < _FORK_ENTRIES:
        return len(rows)
    return cut


@contextlib.contextmanager
def _scratch(fh: TextIO, path: str | Path, wanted: bool) -> Iterator[TextIO | None]:
    """If ``wanted``, an unlinked file beside ``path``, which ``fh`` writes, for a child to write into; None where it is
    not wanted, ``fh`` is not a regular file, or the directory opens no ``O_TMPFILE`` file."""
    if not (wanted and hasattr(os, "O_TMPFILE") and stat.S_ISREG(os.fstat(fh.fileno()).st_mode)):
        yield None
        return
    try:
        fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_TMPFILE | os.O_RDWR, 0o600)
    except OSError:  # as on a file system without O_TMPFILE
        yield None
        return
    with open(fd, "w", newline="", encoding="utf-8") as tmp:
        yield tmp


def _write_tail(tmp: TextIO, ends: np.ndarray, rows: list[tuple[str, Chunk]], fd: int) -> None:
    """The child's work: write ``rows`` into ``tmp``, then send the file's size to ``fd`` as its message."""
    _write(tmp, ends, rows)
    tmp.flush()
    with open(fd, "wb") as pipe:
        pipe.write(b"%d" % os.fstat(tmp.fileno()).st_size)


def _append(fh: TextIO, tmp: TextIO, pipe: BinaryIO) -> bool:
    """Append the child's file ``tmp`` to ``fh`` if the child sent its size whole to ``pipe``; else False."""
    message = pipe.read()
    size = os.fstat(tmp.fileno()).st_size
    if message != b"%d" % size:
        return False
    fh.flush()
    offset = 0
    while offset < size:
        offset += os.sendfile(fh.fileno(), tmp.fileno(), offset, size - offset)
    return True


def _lines(ends: np.ndarray, table: np.ndarray, codes: np.ndarray, labels: np.ndarray, mask) -> list[str]:
    """Each row's text after the id field; each (table entry, line ending) pair used is formatted once.

    Used pairs are marked in an array over the table when it is no longer
    than the chunk, else found by ``_bit_codes``, so a chunk costs its own
    rows. ``repr`` is the shortest text that parses back to the same
    float, and keeps ``-0.0`` apart from ``0.0``.
    """
    pair = codes.astype(np.int64)  # each row's (entry, label, mask) pair, flattened
    pair *= len(ends)
    pair += labels
    if mask is not None:
        pair += 2 * mask
    if len(table) <= len(pair):
        used = np.zeros(len(table) * len(ends), bool)
        used[pair] = True
        slots, pair = np.flatnonzero(used), (np.cumsum(used) - 1)[pair]
    else:
        slots, pair = _bit_codes(pair)
    lines = np.array(list(map(repr, table[slots // len(ends)].tolist())), dtype=object) + ends[slots % len(ends)]
    lines = lines[pair]
    del pair
    return lines.tolist()


def write_csv(
    groups: Sequence[GroupData], path: str | Path, withheld: Mapping[str, np.ndarray] | None = None
) -> None:
    """Write groups back to the CSV schema, round-tripping values exactly.

    Each group's rows go through ``write_rows`` in chunks of
    ``_WRITE_CHUNK`` rows. With ``withheld`` a fourth column holds each
    group's Monte Carlo withholding mask as 0/1; groups missing from the
    mapping were not post-processed and read 0. A mask whose length
    differs from its group's, or that holds a value other than 0 or 1
    (such as 0.5 or NaN), raises ValueError before the file is opened, as
    does a group that holds only its atom table.
    """
    rows = [g.rows() for g in groups]
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
