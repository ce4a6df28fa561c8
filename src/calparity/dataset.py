"""Grouped score/label data: CSV ingestion and a seeded synthetic generator.

The data model is intentionally small: a group is an ordered collection of
(score, label) samples where the score is a probabilistic classifier output
in [0, 1] and the label is the observed binary outcome. Both classes must be
present in every group so the base rate stays strictly inside (0, 1).
"""

from __future__ import annotations

import codecs
import csv
import io
import os
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

CSV_HEADER = ("group", "score", "label")

FAMILIES = ("point_mass", "grid", "beta_grid")

# Caps on a synthetic group's rows and on the ``grid`` family's k, far above
# any real use and small enough to reject a spec before it allocates.
_MAX_SYNTH_N = 10**8
_MAX_GRID_K = 10**8


class CsvFormatError(ValueError):
    """Input CSV does not match the ``group,score,label`` schema."""


@dataclass(frozen=True, eq=False)
class GroupData:
    """Scores and binary outcomes for one population group.

    ``base_rate`` is the arithmetic mean of the labels, cached at
    construction. Arrays are copied and frozen, so instances are safe to
    share across threads.
    """

    group_id: str
    scores: np.ndarray
    labels: np.ndarray
    base_rate: float = field(init=False)

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float).copy()
        labels = np.asarray(self.labels, dtype=np.int64).copy()
        if scores.ndim != 1 or labels.shape != scores.shape:
            raise ValueError("scores and labels must be 1-d arrays of equal length")
        if scores.size == 0:
            raise ValueError(f"group {self.group_id!r} has no samples")
        if np.any((scores < 0.0) | (scores > 1.0)):
            raise ValueError(f"group {self.group_id!r} has scores outside [0, 1]")
        if not np.all((labels == 0) | (labels == 1)):
            raise ValueError(f"group {self.group_id!r} has non-binary labels")
        mu = float(labels.sum()) / labels.size
        if not 0.0 < mu < 1.0:
            raise ValueError(
                f"group {self.group_id!r} contains a single class (base rate {mu})"
            )
        scores.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "base_rate", mu)

    def __len__(self) -> int:
        return int(self.scores.size)

    @cached_property
    def atoms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Atom table ``(values, negatives, positives)``, built on first use.

        ``values`` are the distinct scores in ascending order; ``negatives``
        and ``positives`` count the samples of each class at each value, as
        floats. Every group statistic depends on the samples only through
        this table. Caching is safe because the arrays are frozen.
        """
        values, inverse = np.unique(self.scores, return_inverse=True)
        positives = np.bincount(inverse, weights=self.labels, minlength=values.size)
        negatives = np.bincount(inverse, minlength=values.size) - positives
        for a in (values, negatives, positives):
            a.setflags(write=False)
        return values, negatives, positives


def load_csv(path: str | Path) -> list[GroupData]:
    """Read a ``group,score,label`` CSV into one GroupData per group.

    Sample order is preserved within each group. A leading UTF-8 byte order
    mark is skipped. Raises CsvFormatError with the offending row number for
    schema violations, out-of-range scores, non-binary labels, and
    single-class groups.

    Clean input is parsed column-wise in one numpy pass; anything the fast
    path does not read exactly as the row parser would goes to
    ``_load_reference``, which also produces every row error. Both end in
    ``_groups``, which reports a single-class group.
    """
    groups = _load_columnar(path)
    return _load_reference(path) if groups is None else groups


_CHUNK = 1 << 20

# Group ids are coded to dense ints through a converter, not read as a
# fixed-width string column, which would truncate long ids silently and
# cost more memory. ``S2`` labels keep ``10`` from passing as ``1``.
_ROW = np.dtype([("group", "i4"), ("score", "f8"), ("label", "S2")])


class _Codes(dict):
    """Maps each group id to a dense int in first-seen order."""

    def __missing__(self, key: str) -> int:
        code = self[key] = len(self)
        return code


def _clean_bytes(raw: BinaryIO) -> bool:
    """True when the bytes hold nothing numpy reads differently from ``csv``.

    Rejects non-ASCII bytes, quotes (which ``csv`` strips and numpy keeps),
    NUL (which numpy strips from byte strings) and any line longer than
    ``csv.field_size_limit()``, on which the reference parser raises. A line
    feed and a bare carriage return both end a line, as they do for ``csv``.
    Reads the file in chunks, never holding a second copy of it.
    """
    limit = csv.field_size_limit()
    run = 0  # length of the line that runs into the current chunk
    chunk = raw.read(_CHUNK).removeprefix(codecs.BOM_UTF8)
    while chunk:
        if not chunk.isascii() or b'"' in chunk or b"\0" in chunk:
            return False
        start, end = -run, len(chunk)  # start of the current line, maybe in an earlier chunk
        while end - start > limit:
            span = max(start, 0), start + limit + 1
            newline = max(chunk.rfind(b"\n", *span), chunk.rfind(b"\r", *span))
            if newline < 0:
                return False
            start = newline + 1
        run = end - start
        chunk = raw.read(_CHUNK)
    return True


def _load_columnar(path: str | Path) -> list[GroupData] | None:
    """Parse clean input in one ``np.loadtxt`` pass, or return None.

    None means the reference parser must decide: the input is not a regular
    file of clean bytes, the header or a row does not parse as plain
    ``id,float,0|1``, an id carries surrounding whitespace, or a score lies
    outside [0, 1]. Whatever this accepts, the reference parser reads to the
    same groups, in the same order, with the same bits, or rejects with the
    same error. ``comments=None`` because ``csv`` gives ``#`` no meaning;
    ``encoding=None`` so that numpy before 2.0 hands the id converter ``str``,
    not ``bytes``.
    """
    if not os.path.isfile(path):  # a pipe can be read only once
        return None
    with open(path, "rb") as raw:
        if not _clean_bytes(raw):
            return None
        raw.seek(0)
        with io.TextIOWrapper(raw, encoding="utf-8-sig") as fh:
            if tuple(h.strip() for h in fh.readline().split(",")) != CSV_HEADER:
                return None
            codes = _Codes()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    table = np.loadtxt(
                        fh, delimiter=",", dtype=_ROW, converters={0: codes.__getitem__},
                        comments=None, encoding=None, ndmin=1,
                    )
            except (ValueError, Warning):
                return None
    scores, labels = table["score"], table["label"] == b"1"
    if not (
        all(gid == gid.strip() for gid in codes)
        and np.all((scores >= 0.0) & (scores <= 1.0))
        and np.all(labels | (table["label"] == b"0"))
    ):
        return None
    order = np.argsort(table["group"], kind="stable")
    bounds = np.cumsum(np.bincount(table["group"]))[:-1]
    return _groups(zip(codes, np.split(scores[order], bounds), np.split(labels[order], bounds)))


def _load_reference(path: str | Path) -> list[GroupData]:
    """Row-by-row ``csv`` parser: the reference for what ``load_csv`` accepts."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = _numbered_rows(fh)
        _, header = next(rows, (1, None))
        if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
            raise CsvFormatError(
                f"expected header {','.join(CSV_HEADER)!r}, got {header!r}"
            )
        by_group: dict[str, tuple[list[float], list[int]]] = {}
        for lineno, row in rows:
            if not row:
                continue
            if len(row) != 3:
                raise CsvFormatError(f"row {lineno}: expected 3 columns, got {len(row)}")
            gid, score_text, label_text = (cell.strip() for cell in row)
            try:
                score = float(score_text)
            except ValueError:
                raise CsvFormatError(f"row {lineno}: unparseable score {score_text!r}") from None
            if not 0.0 <= score <= 1.0:
                raise CsvFormatError(f"row {lineno}: score {score_text} outside [0, 1]")
            if label_text not in ("0", "1"):
                raise CsvFormatError(f"row {lineno}: label must be 0 or 1, got {label_text!r}")
            scores, labels = by_group.setdefault(gid, ([], []))
            scores.append(score)
            labels.append(int(label_text))
        if not by_group:
            raise CsvFormatError("no data rows")
    return _groups((gid, np.array(scores), np.array(labels)) for gid, (scores, labels) in by_group.items())


def _groups(parts: Iterable[tuple[str, np.ndarray, np.ndarray]]) -> list[GroupData]:
    """One GroupData per ``(id, scores, labels)``; its checks become CsvFormatError."""
    try:
        return [GroupData(gid, scores, labels) for gid, scores, labels in parts]
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


def write_csv(
    groups: Sequence[GroupData], path: str | Path, withheld: Mapping[str, np.ndarray] | None = None
) -> None:
    """Write groups back to the CSV schema, round-tripping values exactly.

    Scores are emitted with ``repr``, which is the shortest string that
    parses back to the identical float. With ``withheld`` a fourth column
    holds each group's Monte Carlo withholding mask as 0/1; groups missing
    from the mapping were not post-processed and read 0. A mask whose
    length differs from its group's, or that holds a value other than 0 or
    1, raises ValueError before the file is opened.

    Each group is streamed in chunks of ``_WRITE_CHUNK`` rows, and each chunk
    formats each distinct score once: ``np.unique`` over the score bits (so
    ``-0.0`` and ``0.0`` keep their own text), one ``repr`` per distinct
    value, and a table of whole lines per (score, line ending) that the rows
    index. The bytes are those ``csv.writer`` writes with one ``repr`` per
    row; the id field comes from ``csv.writer`` itself, so ids are quoted as
    it quotes them.
    """
    masks = [None if withheld is None else _withheld_mask(g, withheld) for g in groups]
    suffixes = ("",) if withheld is None else (",0", ",1")
    ends = np.array([f",{label}{w}\r\n" for label in "01" for w in suffixes], dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(CSV_HEADER if withheld is None else CSV_HEADER + ("withheld",))
        for g, mask in zip(groups, masks):
            prefix = _row_prefix(g.group_id)
            bits = g.scores.view(np.uint64)
            for lo in range(0, len(g), _WRITE_CHUNK):
                chunk = slice(lo, lo + _WRITE_CHUNK)
                keys, inverse = np.unique(bits[chunk], return_inverse=True)
                text = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
                code = g.labels[chunk] * len(suffixes)  # index into ends
                if mask is not None:
                    code += mask[chunk]
                lines = np.add.outer(text, ends)  # each line after the id field
                fh.write(prefix)
                fh.write(prefix.join(lines[inverse, code].tolist()))


def _withheld_mask(g: GroupData, withheld: Mapping[str, np.ndarray]) -> np.ndarray | None:
    mask = withheld.get(g.group_id)
    if mask is None:
        return None
    mask = np.asarray(mask).astype(np.int64)
    if mask.shape != g.scores.shape or not np.all((mask == 0) | (mask == 1)):
        raise ValueError(
            f"withheld mask for group {g.group_id!r} must hold {len(g)} values of 0 or 1"
        )
    return mask


def _row_prefix(group_id: str) -> str:
    """The id field and its comma, quoted exactly as ``csv.writer`` quotes it."""
    buf = io.StringIO()
    csv.writer(buf).writerow((group_id, ""))
    return buf.getvalue()[: -len("\r\n")]


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one seeded synthetic group.

    Families:
      * ``point_mass``: params ``(p,)``, every score equals p.
      * ``grid``: params ``(lo, hi, k)``, scores drawn uniformly from k
        evenly spaced values in [lo, hi]; k may be at most 10**8.
      * ``beta_grid``: params ``(a, b, bins)``, Beta(a, b) draws snapped to
        the midpoints of ``bins`` equal-width bins, keeping the support
        finite. ``bins`` may be at most 2**53, the largest count whose bin
        indices are exact in float.

    ``n`` may be at most 10**8 and ``seed`` must be non-negative.
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
        else:
            if len(p) != 3 or not (p[0] > 0.0 and p[1] > 0.0 and 1 <= p[2] <= 2**53):
                raise ValueError("beta_grid takes (a, b, bins) with a, b > 0, 1 <= bins <= 2**53")


def _draw_scores(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.family == "point_mass":
        return np.full(spec.n, float(spec.params[0]))
    if spec.family == "grid":
        lo, hi, k = spec.params
        values = np.linspace(lo, hi, int(k))
        return rng.choice(values, size=spec.n)
    a, b, bins = spec.params
    bins = int(bins)
    raw = rng.beta(a, b, size=spec.n)
    idx = np.minimum((raw * bins).astype(int), bins - 1)
    return (idx + 0.5) / bins


def synth(spec: SynthSpec) -> GroupData:
    """Generate a group with labels drawn at clamp(score + shift).

    With shift 0 the labels are Bernoulli draws at the score itself, so the
    population calibration gap is zero; otherwise it equals |shift|
    wherever no clamping occurs. Deterministic for a fixed spec (numpy
    PCG64 under the given seed).
    """
    rng = np.random.default_rng(spec.seed)
    scores = _draw_scores(spec, rng)
    probs = np.clip(scores + spec.miscalibration_shift, 0.0, 1.0)
    mean_prob = float(probs.mean())
    if mean_prob <= 0.0 or mean_prob >= 1.0:
        raise ValueError(
            "degenerate synthetic spec: labels would be single-class in expectation"
        )
    labels = (rng.random(spec.n) < probs).astype(np.int64)
    return GroupData(spec.group_id, scores, labels)
