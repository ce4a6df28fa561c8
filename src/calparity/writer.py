"""The one CSV row writer: rows formatted from a group's bit table and codes, a chunk at a time.

Only the commands that write rows import it (``--output`` runs, Monte
Carlo draws and ``synth``), so a read-only command never compiles it.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .dataset import CSV_HEADER, WITHHELD, GroupData, _binary, _bit_codes

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


def write_rows(
    path: str | Path, groups: Iterable[tuple[str, Iterable[Chunk]]], withheld: bool = False
) -> None:
    """Write each ``(group_id, chunks)`` pair's rows as CSV, chunk by chunk.

    This is the one row writer, and it holds one chunk's text at a time.
    A chunk is ``(table, codes, labels, mask)``: row i scores
    ``table[codes[i]]``; labels are bool or 0/1, and with ``withheld`` the
    mask is written as a fourth 0/1 column. Nothing is checked here:
    callers check first, so a bad input leaves no file behind. The bytes
    are those ``csv.writer`` writes with one ``repr`` per row; the id field
    comes from ``csv.writer`` itself, so ids are quoted as it quotes them.
    """
    suffixes = (",0", ",1") if withheld else ("",)
    ends = np.array([f",{label}{w}\r\n" for w in suffixes for label in "01"], dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(CSV_HEADER + (WITHHELD,) if withheld else CSV_HEADER)
        for group_id, chunks in groups:
            prefix = _row_prefix(group_id)
            for chunk in chunks:
                fh.write(prefix)
                fh.write(prefix.join(_lines(ends, *chunk)))


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
