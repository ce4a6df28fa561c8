"""Independent oracles for the CSV reader and writer, the flip LP and the Monte Carlo draw.

The flip LP solver under test enumerates vertices of the constrained box.
These helpers never touch its internals: expected losses come from a scalar
per-sample loop, and affine coefficients are recovered by probing the
rate/loss evaluations at corner points. ``load_reference`` is the
whole-file row-by-row ``csv`` reader whose groups or error
``dataset.load_csv`` must give for any bytes, ``derived_rates`` is the
per-sample rate computation that ``eo.derived_rates`` must match bit for
bit, ``write_csv_rows`` is the row-by-row writer that ``writer.write_csv``
must match byte for byte, ``dump_json`` is the dict-per-bin JSON writer
that the CLI's ``_emit`` must match byte for byte, ``synth_whole`` is
the whole-array generator whose groups the chunked ``synthetic.SynthGroup``
must draw value for value, ``mixture_whole`` is the whole-array
Monte Carlo draw that ``parity.realize_mixture`` must give bit for bit,
``read_rows`` and ``rewrite_rows`` are the row-by-row reader and writer
that the CLI's ``--output`` files must match byte for byte, and
``vertices_by_row_reduction`` is the row-reduction vertex enumeration whose
feasibility and vertices ``eo._enumerate_vertices`` must reproduce, and
``exact_mean`` is the ``Fraction`` sum that ``metrics._exact_mean`` must
give bit for bit.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from fractions import Fraction
from itertools import combinations, product, repeat

import numpy as np

from calparity.dataset import CSV_HEADER, CsvFormatError, GroupData
from calparity.synthetic import SynthSpec
from calparity.eo import flipped_scores
from calparity.metrics import RatePoint


def load_reference(path) -> list[GroupData]:
    """The whole file decoded at once, then one ``csv`` row at a time: the reference for ``load_csv``.

    Each group's samples are kept as Python lists until the end. A byte
    that is not UTF-8 is decoded to a lone surrogate, and the row holding
    one is reported before any other check of that row.
    """
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8-sig", "surrogateescape")
    reader, lineno = csv.reader(io.StringIO(text, newline="")), 0

    def next_row():
        nonlocal lineno
        lineno += 1
        try:
            return next(reader)
        except StopIteration:
            return None
        except csv.Error as exc:  # a field longer than csv.field_size_limit()
            raise CsvFormatError(f"row {lineno}: {exc}") from None

    headers = (CSV_HEADER, CSV_HEADER + ("withheld",))
    header = next_row()
    if header is None or tuple(h.strip() for h in header) not in headers:
        raise CsvFormatError(f"expected header {','.join(headers[0])!r} or {','.join(headers[1])!r}, got {header!r}")
    width, by_group = len(header), {}
    while (row := next_row()) is not None:
        if not row:
            continue
        if any("\udc80" <= c <= "\udcff" for cell in row for c in cell):
            raise CsvFormatError(f"row {lineno}: not valid UTF-8")
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
    try:
        return [GroupData(gid, np.array(scores), np.array(labels)) for gid, (scores, labels) in by_group.items()]
    except ValueError as exc:
        raise CsvFormatError(str(exc)) from None


def write_csv_rows(groups, path, withheld=None) -> None:
    """One ``csv.writer`` row and one ``repr`` per sample."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER if withheld is None else CSV_HEADER + ("withheld",))
        for g in groups:
            columns = [repeat(g.group_id), map(repr, g.scores.tolist()), g.labels.tolist()]
            if withheld is not None:
                mask = withheld.get(g.group_id)
                columns.append(repeat(0) if mask is None else mask.astype(np.int64).tolist())
            writer.writerows(zip(*columns))



def read_rows(path) -> dict[str, tuple[list[float], list[int]]]:
    """Each group's scores and labels in file order, groups in first-seen order: one ``csv`` row at a time.

    Empty rows are skipped, as ``load_csv`` skips them.
    """
    groups: dict[str, tuple[list[float], list[int]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for gid, score, label in filter(None, list(csv.reader(fh))[1:]):
            scores, labels = groups.setdefault(gid, ([], []))
            scores.append(float(score))
            labels.append(int(label))
    return groups


def rewrite_rows(groups, path, flips=None, mc=None) -> None:
    """``read_rows`` groups written back with ``csv.writer``, one ``repr`` per row.

    ``flips`` maps each group to its ``(q_n2p, q_p2n)``, applied to one row
    at a time by ``eo.flipped_scores``. ``mc`` is ``(group, alpha, trivial,
    seed)``: that group's mask is the whole-array ``rng.random(n) < alpha``,
    a withheld row scores ``trivial``, and a fourth column holds every mask.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER if mc is None else CSV_HEADER + ("withheld",))
        for gid, (scores, labels) in groups.items():
            mask = [False] * len(scores)
            if mc is not None and gid == mc[0]:
                mask = (np.random.default_rng(mc[3]).random(len(scores)) < mc[1]).tolist()
            for score, label, withheld in zip(scores, labels, mask):
                if flips is not None:
                    score = float(flipped_scores(np.array([score]), *flips[gid])[0])
                if withheld:
                    score = mc[2]
                writer.writerow([gid, repr(score), label] + ([] if mc is None else [int(withheld)]))


def synth_whole(spec: SynthSpec) -> GroupData:
    """Every draw as one whole-array call, each check on the whole group."""
    rng = np.random.default_rng(spec.seed)
    if spec.family == "point_mass":
        scores = np.full(spec.n, float(spec.params[0]))
    elif spec.family == "grid":
        lo, hi, k = spec.params
        scores = rng.choice(np.linspace(lo, hi, int(k)), size=spec.n)
    else:
        a, b, bins = spec.params
        bins = int(bins)
        idx = np.minimum((rng.beta(a, b, size=spec.n) * bins).astype(int), bins - 1)
        scores = (idx + 0.5) / bins
    probs = np.clip(scores + spec.miscalibration_shift, 0.0, 1.0)
    mean_prob = float(probs.mean())
    if mean_prob <= 0.0 or mean_prob >= 1.0:
        raise ValueError("degenerate synthetic spec: labels would be single-class in expectation")
    labels = (rng.random(spec.n) < probs).astype(np.int64)
    return GroupData(spec.group_id, scores, labels)


def mixture_whole(g: GroupData, plan) -> tuple[np.ndarray, np.ndarray]:
    """``(realized scores, withheld)``: the whole mask drawn in one call, then one ``np.where``."""
    withheld = np.random.default_rng(plan.seed).random(len(g)) < plan.alpha
    return np.where(withheld, plan.trivial_output, g.scores), withheld

def _dict_form(obj):
    """Record arrays as lists of bin dicts, dataclasses as ``asdict``, floats rounded to 12 significant digits."""
    if dataclasses.is_dataclass(obj):
        return _dict_form(dataclasses.asdict(obj))
    if isinstance(obj, np.ndarray):  # a per_bin array: one dict per bin, keyed as the CLI prints them
        return _dict_form([{"score": m, "positive_fraction": f, "weight": w} for m, f, w in obj.tolist()])
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _dict_form(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_dict_form(v) for v in obj]
    return obj


def dump_json(report, fh) -> None:
    """The report as ``json.dump(indent=2)`` writes its dict-per-bin form, plus a newline."""
    json.dump(_dict_form(report), fh, indent=2)
    fh.write("\n")


def exact_mean(values, counts) -> float:
    """The count-weighted sum of ``values`` as a ``Fraction``, rounded to a float once, over the total count."""
    total = sum(Fraction(v) * int(c) for v, c in zip(values, counts))
    return float(total) / int(sum(counts))


def derived_rates(g: GroupData, q_n2p: float, q_p2n: float) -> RatePoint:
    """Expected generalized rates of the flipped classifier: ``math.fsum`` per sample."""
    q = np.where(g.scores >= 0.5, q_p2n, q_n2p)
    t = np.clip(g.scores + q * (1.0 - 2.0 * g.scores), 0.0, 1.0)
    negatives = t[g.labels == 0]
    positives = 1.0 - t[g.labels == 1]
    c_fp = math.fsum(negatives.tolist()) / negatives.size
    c_fn = math.fsum(positives.tolist()) / positives.size
    return RatePoint(c_fp, c_fn)


def expected_loss(g: GroupData, q_n2p: float, q_p2n: float) -> float:
    """Thresholded 0/1 loss of the flipped classifier, per-sample loop."""
    neg_sum = pos_sum = 0.0
    n_neg = n_pos = 0
    for s, y in zip(g.scores, g.labels):
        b = 1.0 if s >= 0.5 else 0.0
        f = 1.0 if (1.0 - s) >= 0.5 else 0.0
        q = q_p2n if s >= 0.5 else q_n2p
        e = (1.0 - q) * b + q * f
        if y == 0:
            neg_sum += e
            n_neg += 1
        else:
            pos_sum += 1.0 - e
            n_pos += 1
    return neg_sum / n_neg + pos_sum / n_pos


def _rate_affine(g: GroupData):
    p00 = derived_rates(g, 0.0, 0.0)
    p10 = derived_rates(g, 1.0, 0.0)
    p01 = derived_rates(g, 0.0, 1.0)
    fp = np.array([p00.c_fp, p10.c_fp - p00.c_fp, p01.c_fp - p00.c_fp])
    fn = np.array([p00.c_fn, p10.c_fn - p00.c_fn, p01.c_fn - p00.c_fn])
    return fp, fn


def _loss_affine(g: GroupData):
    l00 = expected_loss(g, 0.0, 0.0)
    l10 = expected_loss(g, 1.0, 0.0)
    l01 = expected_loss(g, 0.0, 1.0)
    return np.array([l00, l10 - l00, l01 - l00])


def eo_grid_oracle(g1: GroupData, g2: GroupData, steps: int = 101):
    """Coordinate-profiled grid search for the flip LP.

    One group's flip pair sweeps a regular grid; the other pair is solved
    exactly from the two rate-equality constraints and kept when it lands
    in the box. Returns (best objective, grid-step bound) where the bound
    caps how far the reported optimum can sit above the true one.
    """
    fp1, fn1 = _rate_affine(g1)
    fp2, fn2 = _rate_affine(g2)
    loss1 = _loss_affine(g1)
    loss2 = _loss_affine(g2)

    A1 = np.array([[fp1[1], fp1[2]], [fn1[1], fn1[2]]])
    A2 = -np.array([[fp2[1], fp2[2]], [fn2[1], fn2[2]]])
    rhs = np.array([fp2[0] - fp1[0], fn2[0] - fn1[0]])
    c1 = loss1[1:]
    c2 = loss2[1:]
    const = loss1[0] + loss2[0]

    grid = np.linspace(0.0, 1.0, steps)
    step = grid[1] - grid[0]
    X = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)

    best = np.inf
    bounds = []
    for A_fix, A_solve, c_fix, c_solve in ((A1, A2, c1, c2), (A2, A1, c2, c1)):
        det = A_solve[0, 0] * A_solve[1, 1] - A_solve[0, 1] * A_solve[1, 0]
        if abs(det) < 1e-10:
            continue
        inv = (
            np.array([[A_solve[1, 1], -A_solve[0, 1]], [-A_solve[1, 0], A_solve[0, 0]]])
            / det
        )
        Y = (rhs - X @ A_fix.T) @ inv.T
        in_box = np.all((Y >= -1e-12) & (Y <= 1.0 + 1e-12), axis=1)
        if np.any(in_box):
            objective = const + X[in_box] @ c_fix + Y[in_box] @ c_solve
            best = min(best, float(objective.min()))
        gain = np.abs(c_fix).sum() + np.abs(c_solve).sum() * np.abs(inv @ A_fix).sum(axis=1).max()
        bounds.append(step * gain)
    # Coverage is only guaranteed for one direction, so keep the looser bound.
    return best, (max(bounds) if bounds else np.inf)


def _independent_rows(A: np.ndarray, b: np.ndarray, feas_tol: float, pivot_tol: float):
    """Row-reduce, dropping dependent rows; None when the system is inconsistent."""
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for i in range(A.shape[0]):
        r = A[i].astype(float).copy()
        v = float(b[i])
        for kept, kept_rhs in zip(rows, rhs):
            j = int(np.argmax(np.abs(kept)))
            factor = r[j] / kept[j]
            r = r - factor * kept
            v = v - factor * kept_rhs
        if np.max(np.abs(r)) > pivot_tol:
            rows.append(r)
            rhs.append(v)
        elif abs(v) > feas_tol:
            return None
    return np.array(rows).reshape(len(rows), A.shape[1]), np.array(rhs)


def vertices_by_row_reduction(A: np.ndarray, b: np.ndarray, feas_tol: float = 1e-9, pivot_tol: float = 1e-12):
    """Vertices of {q in [0,1]^n : A q = b}: row-reduce, then solve each nonsingular square subsystem.

    Every vertex has at least n - rank(A) coordinates at a box bound; the
    remaining coordinates come from solving the reduced equality system.
    """
    n = A.shape[1]
    reduced = _independent_rows(A, b, feas_tol, pivot_tol)
    if reduced is None:
        return []
    R, d = reduced
    r = R.shape[0]
    vertices: list[np.ndarray] = []
    for fixed in combinations(range(n), n - r):
        free = [j for j in range(n) if j not in fixed]
        square = R[:, free]
        if r > 0 and abs(np.linalg.det(square)) <= pivot_tol:
            continue
        for values in product((0.0, 1.0), repeat=n - r):
            q = np.empty(n)
            q[list(fixed)] = values
            if r > 0:
                q[free] = np.linalg.solve(square, d - R[:, list(fixed)] @ np.array(values))
            if np.all(q >= -feas_tol) and np.all(q <= 1.0 + feas_tol):
                q = np.clip(q, 0.0, 1.0)
                if np.max(np.abs(A @ q - b)) <= feas_tol:
                    vertices.append(q)
    return vertices
