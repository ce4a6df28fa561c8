"""Seeded synthetic groups, drawn and written a chunk at a time, and the ``synth`` command's spec.

Of the commands only ``synth`` imports it, so no other command compiles it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import writer
from .dataset import GroupData, _base_rate, _bit_codes

FAMILIES = ("point_mass", "grid", "beta_grid")

# Caps on a synthetic group's rows and on the ``grid`` family's k, far above
# any real use and small enough to reject a spec before it allocates.
_MAX_SYNTH_N = 10**8
_MAX_GRID_K = 10**8


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


def _draw_chunks(spec: SynthSpec, rng: np.random.Generator) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The group's scores in chunks of ``_WRITE_CHUNK`` rows, each as ``_bit_codes`` gives it.

    A chunk is its distinct score bit patterns as a float table and each
    row's code into it, so it holds a byte a row while it has at most 256
    distinct scores. Each draw takes its values from the stream in order,
    so the chunks hold the values one whole-array draw gives, and the draw
    temporaries are one chunk's.
    """
    if spec.family == "point_mass":

        def draw(m: int) -> np.ndarray:
            return np.full(m, float(spec.params[0]))

    elif spec.family == "grid":
        lo, hi, k = spec.params
        k = int(k)

        def draw(m: int) -> np.ndarray:  # as rng.choice(np.linspace(lo, hi, k), size=m) draws
            return _linspace_at(lo, hi, k, rng.integers(0, k, size=m))

    else:
        a, b, bins = spec.params
        bins = int(bins)

        def draw(m: int) -> np.ndarray:
            return (np.minimum((rng.beta(a, b, size=m) * bins).astype(int), bins - 1) + 0.5) / bins

    for start in range(0, spec.n, writer._WRITE_CHUNK):
        yield _bit_codes(draw(min(writer._WRITE_CHUNK, spec.n - start)))


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


# A spec is degenerate when numpy's mean of its rows' label probabilities p is
# 0 or 1. The check first sums p over each chunk, as counts times table
# entries. That sum, and numpy's pairwise sum, add non-negative terms, so for
# n <= 10**8 rows each errs by less than 2n * 2**-53 relative, at most 2.2e-8,
# far below the margins here. So 1e-300·n < Σp means that numpy's mean lies
# above 0 (its quotient does not underflow), and Σp < (1 - 1e-6)·n that it
# lies below 1. Only a group whose sum lies within one of these margins of 0
# or of n builds its probabilities, 8 bytes a row, for numpy's mean itself.
_MIN_MEAN_PROB = 1e-300
_MAX_MEAN_PROB = 1 - 1e-6


def _degenerate(chunks: list[tuple[np.ndarray, np.ndarray]], shift: float) -> bool:
    """Whether numpy's mean of the labels' probabilities over every row is 0 or 1."""
    n = sum(len(codes) for _, codes in chunks)
    total = sum(float(np.bincount(codes, minlength=len(t)) @ _label_probs(t, shift)) for t, codes in chunks)
    if _MIN_MEAN_PROB * n < total < _MAX_MEAN_PROB * n:
        return False
    mean = float(np.concatenate([_label_probs(t, shift)[codes] for t, codes in chunks]).mean())
    return mean <= 0.0 or mean >= 1.0


@dataclass(frozen=True, eq=False)
class SynthGroup:
    """A synthetic group, drawn from its spec and checked, ready for ``write_rows``.

    Holds its scores as ``_draw_chunks`` gives them: per chunk of
    ``_WRITE_CHUNK`` rows a table of distinct scores and a code a row, one
    byte a row where a chunk has at most 256 distinct scores. Raises
    ValueError if the mean label probability is 0 or 1 (a degenerate spec)
    or if the labels hold a single class, worded as ``GroupData`` words it.
    The mean is numpy's pairwise mean over the whole probability array, so
    the check does not depend on the chunk size; ``_degenerate`` builds
    that array only for a group whose chunk sums lie near 0 or its size.
    Each chunk's labels are drawn once, after every score, and held as
    ``np.packbits`` gives them, an eighth of a byte a row.
    """

    spec: SynthSpec
    base_rate: float = field(init=False)
    _chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(init=False, repr=False)  # table, codes, bits

    def __post_init__(self) -> None:
        spec = self.spec
        rng = np.random.default_rng(spec.seed)
        scores = list(_draw_chunks(spec, rng))
        shift = spec.miscalibration_shift
        if _degenerate(scores, shift):
            raise ValueError(
                "degenerate synthetic spec: labels would be single-class in expectation"
            )
        chunks, positives = [], 0
        for table, codes in scores:
            labels = rng.random(len(codes)) < _label_probs(table, shift)[codes]
            positives += int(np.count_nonzero(labels))
            chunks.append((table, codes, np.packbits(labels)))
        object.__setattr__(self, "base_rate", _base_rate(spec.group_id, positives, spec.n))
        object.__setattr__(self, "_chunks", chunks)

    def chunks(self) -> Iterator[writer.Chunk]:
        """``write_rows`` chunks of ``_WRITE_CHUNK`` rows, the held labels unpacked."""
        for table, codes, bits in self._chunks:
            yield table, codes, np.unpackbits(bits, count=len(codes)).view(bool), None


def synth(spec: SynthSpec) -> GroupData:
    """Generate a group with labels drawn at clamp(score + shift).

    With shift 0 the labels are Bernoulli draws at the score itself, so the
    population calibration gap is zero; otherwise it equals |shift|
    wherever no clamping occurs. Deterministic for a fixed spec (numpy
    PCG64 under the given seed). The rows are the chunks of
    ``SynthGroup``, which ``calparity synth`` writes without building a
    GroupData.
    """
    chunks = list(SynthGroup(spec).chunks())
    scores = np.concatenate([table[codes] for table, codes, _, _ in chunks])
    labels = np.concatenate([labels for _, _, labels, _ in chunks])
    return GroupData(spec.group_id, scores, labels)


def _spec_field(entry: dict, i: int, key: str, convert, default=None):
    """``convert(entry[key])``, or ``default``; errors name the spec field."""
    where = f"synth spec groups[{i}].{key}"
    if key not in entry:
        if default is None:
            raise ValueError(f"{where} is missing")
        return default
    try:
        return convert(entry[key])
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where} has invalid value {entry[key]!r}") from None


def _real(value) -> float:
    """A JSON number as a float; a bool or a string is not a number here."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"not a number: {value!r}")
    return float(value)


def _string(value) -> str:
    """A JSON string as it is; ``str()`` would turn ``null`` or ``5`` into an id."""
    if not isinstance(value, str):
        raise ValueError(f"not a string: {value!r}")
    return value


def _specs(doc, seed: int) -> list[SynthSpec]:
    """The groups of a parsed ``synth --spec`` document; a group without a ``seed`` takes one derived from ``seed``."""
    entries = doc.get("groups") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise ValueError("--spec must be an object with a 'groups' list")
    if not entries:
        raise ValueError("--spec needs at least one group entry")
    derived = np.random.SeedSequence(seed).generate_state(len(entries), dtype=np.uint64)
    specs, first_index = [], {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"synth spec groups[{i}] must be an object, got {entry!r}")
        # load_csv strips ids and merges equal ones, so those would not read back.
        gid = _spec_field(entry, i, "id", _string)
        if gid != gid.strip():
            raise ValueError(f"synth spec groups[{i}].id {gid!r} has surrounding whitespace")
        if gid in first_index:
            raise ValueError(f"synth spec groups[{i}].id {gid!r} repeats groups[{first_index[gid]}].id")
        first_index[gid] = i
        fields = dict(
            n=_spec_field(entry, i, "n", _whole),
            family=_spec_field(entry, i, "family", str),
            params=_spec_field(entry, i, "params", lambda v: tuple(_real(x) for x in v)),
            miscalibration_shift=_spec_field(entry, i, "shift", _real, 0.0),
            seed=_spec_field(entry, i, "seed", _whole, int(derived[i])),
        )
        try:
            specs.append(SynthSpec(group_id=gid, **fields))
        except ValueError as exc:
            raise ValueError(f"synth spec groups[{i}]: {exc}") from None
    return specs
