"""Command-line front end: stats, post-processing, diagnostics, plot data.

All reports are JSON on stdout with floats rounded to 12 significant
digits, so repeated runs with the same inputs, flags, and seed are
byte-identical. Exit codes: 0 success, 1 input or usage error, 2
infeasible instance.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import functools
import gc
import json
import math
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

# Every command but synth reads a CSV and reports its metrics. The other
# modules, the row writer and synth among them, are imported by the commands that run them.
from .dataset import GroupData, _bit_codes, load_csv
from .metrics import DIAGNOSE_TOL, analytic_rates, calibration_gap, linearity_residual, rate_point

if TYPE_CHECKING:
    from .cost import CostSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for infeasibility."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# Record-array fields that print under another JSON key.
_JSON_KEYS = {"mean_score": "score"}

_RECORD_CHUNK = 4096  # record-array rows formatted and written per chunk


def _number(x: float) -> str:
    """``repr`` of ``x`` rounded to 12 significant digits, as json writes that float."""
    return repr(float(f"{x:.12g}"))


def _fields(obj) -> dict:
    """A dataclass instance as the dict of its fields, in declaration order; values as they are."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _encode(obj, depth: int = 0, key: str = "report"):
    """Yield the text ``json.dump(obj, indent=2)`` writes for ``obj``, floats as ``_number`` writes them.

    Dicts with string keys, lists, tuples, strings, numbers, booleans and
    None give exactly json's bytes; a dataclass instance is written as the
    dict of its fields. A NaN or infinity raises ValueError naming its
    nearest dict key or field. A record array is checked whole here; its
    text comes as one more iterator, ``_encode_records``, made as it is
    written.
    """
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"{key} is not finite ({obj})")
        yield _number(obj)
    elif isinstance(obj, np.ndarray):
        for field in obj.dtype.names:
            bad = ~np.isfinite(obj[field])
            if bad.any():
                raise ValueError(f"{_JSON_KEYS.get(field, field)} is not finite ({float(obj[field][bad][0])})")
        yield _encode_records(obj, depth) if len(obj) else "[]"
    elif is_dataclass(obj):
        yield from _encode(_fields(obj), depth, key)
    elif isinstance(obj, (dict, list, tuple)) and obj:
        is_dict = isinstance(obj, dict)
        inner = "\n" + "  " * (depth + 1)
        separator = "{" if is_dict else "["
        for k, value in obj.items() if is_dict else enumerate(obj):
            yield separator + inner + (json.dumps(k) + ": " if is_dict else "")
            separator = ","
            yield from _encode(value, depth + 1, k if is_dict else key)
        yield "\n" + "  " * depth + ("}" if is_dict else "]")
    else:
        yield json.dumps(obj)


def _encode_records(records: np.ndarray, depth: int):
    """Yield a non-empty record array of float fields as json writes a list of one object per row.

    Each field is written under its ``_JSON_KEYS`` name. The rows go out in
    chunks of ``_RECORD_CHUNK``, one string per chunk, and each column of a
    chunk formats each distinct value once: ``_bit_codes`` over the float
    bits (so ``-0.0`` keeps its own text). A value with ``|x| >= 1e-4`` and
    ``|x - round(x)| > 1e-11 * |x|`` is below 5e10 and farther from an
    integer than ``%.12g`` rounds, so ``"%.12g" % x`` is positional with a
    fractional digit and at most 12 significant digits, and ``repr`` of the
    double it parses to gives it back: it equals ``_number(x)``. Those
    values are formatted by one ``map`` of ``%``, with no Python call per
    value; the rest go through ``_number``.
    """
    inner = "\n" + "  " * (depth + 1)
    heads = [
        ("," if i else "{") + inner + "  " + json.dumps(_JSON_KEYS.get(field, field)) + ": "
        for i, field in enumerate(records.dtype.names)
    ]
    separator = inner + "}," + inner
    for lo in range(0, len(records), _RECORD_CHUNK):
        chunk = records[lo : lo + _RECORD_CHUNK]
        columns = []
        for head, field in zip(heads, records.dtype.names):
            values, inverse = _bit_codes(chunk[field])
            size = np.abs(values)
            plain = (size >= 1e-4) & (np.abs(values - np.rint(values)) > 1e-11 * size)
            text = np.empty(len(values), dtype=object)
            text[plain] = list(map((head.replace("%", "%%") + "%.12g").__mod__, values[plain].tolist()))
            text[~plain] = [head + _number(x) for x in values[~plain].tolist()]
            columns.append(text[inverse].tolist())
        yield ("," if lo else "[") + inner + separator.join(map("".join, zip(*columns))) + inner + "}"
    yield "\n" + "  " * depth + "]"


def _emit(report: dict, path: str | None = None) -> None:
    """Write the report as indented JSON to ``path``, or to stdout."""
    parts = list(_encode(report))  # checks every value, so a NaN or infinity writes nothing
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as fh:
        for part in parts:
            fh.writelines((part,) if isinstance(part, str) else part)
        fh.write("\n")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _parse_floats(text: str, count: int, flag: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{flag} expects {count} comma-separated numbers, got {text!r}")
    try:
        return [_finite_float(p) for p in parts]
    except argparse.ArgumentTypeError:
        raise ValueError(f"{flag} expects finite numbers, got {text!r}") from None


def _parse_binning(text: str) -> tuple[str, int]:
    if text == "exact":
        return "exact-unique", 0
    if text.startswith("fixed:"):
        with contextlib.suppress(ValueError):  # calibration_gap bounds the count
            return "fixed-width", int(text.removeprefix("fixed:"))
    raise ValueError(f"binning must be 'exact' or 'fixed:B', got {text!r}")


def _two_groups(groups: list[GroupData], group1: str | None) -> tuple[GroupData, GroupData]:
    if len(groups) != 2:
        raise ValueError(f"expected exactly two groups, found {len(groups)}")
    if group1 is None:
        return groups[0], groups[1]
    ids = {g.group_id: g for g in groups}
    if group1 not in ids:
        raise ValueError(f"--group1 {group1!r} not present; groups are {sorted(ids)}")
    other = next(g for g in groups if g.group_id != group1)
    return ids[group1], other


def _cost_weights(args) -> list[float]:
    """The numbers of the one cost form given: a1,b1,a2,b2 of --cost or rfp,rfn of --weighted-cost."""
    if (args.cost is None) == (args.weighted_cost is None):
        raise ValueError("provide exactly one of --cost a1,b1,a2,b2 or --weighted-cost rfp,rfn")
    if args.cost is not None:
        return _parse_floats(args.cost, 4, "--cost")
    return _parse_floats(args.weighted_cost, 2, "--weighted-cost")


def _resolve_specs(weights: list[float], g1: GroupData, g2: GroupData) -> dict[str, CostSpec]:
    """Per-group cost specs from ``_cost_weights``; --cost binds a1,b1 to G1 as currently assigned."""
    from .cost import CostSpec, weighted_cost_spec

    if len(weights) == 4:
        a1, b1, a2, b2 = weights
        return {g1.group_id: CostSpec(a1, b1), g2.group_id: CostSpec(a2, b2)}
    r_fp, r_fn = weights
    return {
        g1.group_id: weighted_cost_spec(r_fp, r_fn, g1.base_rate),
        g2.group_id: weighted_cost_spec(r_fp, r_fn, g2.base_rate),
    }


def _rates_dict(p) -> dict:
    return {"fp": p.c_fp, "fn": p.c_fn}


def cmd_stats(args) -> int:
    binning, bins = _parse_binning(args.binning)
    groups = load_csv(args.input, samples=False)
    report = {"groups": []}
    for g in groups:
        calibration = calibration_gap(g, binning, bins)
        report["groups"].append(
            {
                "group": g.group_id,
                "n": len(g),
                "base_rate": g.base_rate,
                "rates": _rates_dict(rate_point(g)),
                "analytic_rates": _rates_dict(analytic_rates(g)),
                "calibration": {"gap": calibration.gap, "bins": calibration.per_bin},
                "linearity_residual": linearity_residual(g),
            }
        )
    _emit(report)
    return EXIT_OK


def cmd_postprocess_calibrated(args) -> int:
    from .cost import cost, trivial_cost
    from .parity import (
        MODE_DETERMINISTIC,
        MODE_MONTE_CARLO,
        AlreadyTrivialError,
        InterpolationPlan,
        compute_alpha,
        feasibility,
        mixture_calibration_gap,
        mixture_rate_point,
        realize_mixture,
    )

    weights = _cost_weights(args)
    binning, bins = _parse_binning(args.binning)
    mode = MODE_MONTE_CARLO if args.mode == "mc" else MODE_DETERMINISTIC
    if mode == MODE_MONTE_CARLO and args.seed is None:
        raise ValueError("--mode mc requires --seed")
    # Rows are kept only to realize a Monte Carlo mixture or to write them back.
    groups = load_csv(args.input, samples=mode == MODE_MONTE_CARLO or args.output is not None)
    g1, g2 = _two_groups(groups, args.group1)
    specs = _resolve_specs(weights, g1, g2)

    costs = {g.group_id: cost(rate_point(g), specs[g.group_id]) for g in (g1, g2)}
    swapped = costs[g1.group_id] < costs[g2.group_id]
    if swapped:
        g1, g2 = g2, g1
    trivial2 = trivial_cost(g2.base_rate, specs[g2.group_id])
    verdict = feasibility(costs[g1.group_id], costs[g2.group_id], trivial2)

    report = {
        "group1": g1.group_id,
        "group2": g2.group_id,
        "swapped": swapped,
        "cost_specs": {gid: {"a": s.a, "b": s.b} for gid, s in specs.items()},
        "feasibility": verdict,
        "pre": {
            "g1_cost": verdict.g1_cost,
            "g2_cost": verdict.g2_cost,
            "g1_gap": calibration_gap(g1, binning, bins).gap,
            "g2_gap": calibration_gap(g2, binning, bins).gap,
        },
    }

    if not verdict.feasible:
        report["status"] = "infeasible"
        _emit(report)
        return EXIT_INFEASIBLE

    # Unless Monte Carlo mode realizes the plan, scores pass through: the
    # analytic plan in the report is the deliverable.
    drawn = None  # the Monte Carlo draw whose rows replace G2's
    try:
        alpha = compute_alpha(verdict.g1_cost, verdict.g2_cost, verdict.trivial2_cost)
    except AlreadyTrivialError:
        report["status"] = "already_trivial"
        report["alpha"] = None
    else:
        plan = InterpolationPlan(alpha, g2.base_rate, mode, args.seed)
        report["status"] = "ok"
        report["alpha"] = alpha
        report["plan"] = plan
        post_rates = mixture_rate_point(g2, plan)
        report["post"] = {
            "g1_cost": verdict.g1_cost,
            "g2_cost": cost(post_rates, specs[g2.group_id]),
            "g2_gap": mixture_calibration_gap(g2, plan),
            "g2_rates": _rates_dict(post_rates),
        }
        if mode == MODE_MONTE_CARLO:
            drawn = realize_mixture(g2, plan)
            report["realized"] = {
                "g2_cost": cost(rate_point(drawn.realized), specs[g2.group_id]),
                "g2_gap": calibration_gap(drawn.realized, binning, bins).gap,
                "withheld_fraction": int(np.count_nonzero(drawn.withheld)) / len(g2),
            }
    if args.output:
        from .writer import row_chunks, write_rows

        rows = {g.group_id: row_chunks(*g.rows()) for g in groups}  # checked before the file is opened
        if drawn is not None:
            rows[g2.group_id] = row_chunks(*drawn.realized.rows(), drawn.withheld)
        write_rows(args.output, rows.items(), drawn is not None)
    _emit(report)
    return EXIT_OK


def cmd_postprocess_eo(args) -> int:
    from . import eo as eo_mod

    groups = load_csv(args.input, samples=args.output is not None)
    g1, g2 = _two_groups(groups, args.group1)
    solution = eo_mod.solve_eo(g1, g2)
    if solution.status != eo_mod.STATUS_OPTIMAL:
        _emit({"status": solution.status})
        return EXIT_INFEASIBLE
    plan = solution.plan
    report = {
        "status": solution.status,
        "plan": plan,
        "rates": {gid: _rates_dict(p) for gid, p in solution.rates.items()},
        "objective": solution.objective,
        "pre_gaps": {g.group_id: calibration_gap(g).gap for g in (g1, g2)},
        "calibration_damage": {
            g.group_id: eo_mod.eo_calibration_damage(g, plan[g.group_id].q_n2p, plan[g.group_id].q_p2n)
            for g in (g1, g2)
        },
    }
    if args.output:
        from .writer import row_chunks, write_rows

        # Checked before the file is opened; each group's bit table is flipped once, and its codes are kept.
        rows = [(g.group_id, plan[g.group_id], g.rows()) for g in groups]
        write_rows(args.output, (
            (gid, row_chunks(eo_mod.flipped_scores(table, f.q_n2p, f.q_p2n), codes, labels))
            for gid, f, (table, codes, labels) in rows
        ))
    _emit(report)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    from .cost import CostPair, CostSpec
    from .impossibility import approximate_bound, build_matrix, exact_impossibility_check

    a1, b1, a2, b2 = _parse_floats(args.cost, 4, "--cost")
    a1p, b1p, a2p, b2p = _parse_floats(args.cost2, 4, "--cost2")
    groups = load_csv(args.input, samples=False)
    g1, g2 = _two_groups(groups, args.group1)
    pair = CostPair(CostSpec(a1, b1), CostSpec(a2, b2))
    pair_prime = CostPair(CostSpec(a1p, b1p), CostSpec(a2p, b2p))
    matrix = build_matrix(g1.base_rate, g2.base_rate, pair, pair_prime)
    p1, p2 = rate_point(g1), rate_point(g2)
    exact = exact_impossibility_check(matrix, p1, p2, args.tol)
    bound = approximate_bound(matrix, args.delta_cal, args.delta_cost, args.matrix_max, args.denominator)
    rates = [p1.c_fp, p1.c_fn, p2.c_fp, p2.c_fn]
    _emit(
        {
            "mu": {g1.group_id: g1.base_rate, g2.group_id: g2.base_rate},
            "matrix": [list(row) for row in matrix.rows],
            "distinct": matrix.distinct,
            "rates": {g1.group_id: _rates_dict(p1), g2.group_id: _rates_dict(p2)},
            "exact": exact,
            "bound": bound,
            "rate_bound_respected": bool(max(rates) <= bound.rate_bound),
        }
    )
    return EXIT_OK


def cmd_plot_data(args) -> int:
    from .scene import build_scene

    weights = _cost_weights(args)
    groups = load_csv(args.input, samples=False)
    g1, g2 = _two_groups(groups, args.group1)
    scene = build_scene([g1, g2], _resolve_specs(weights, g1, g2))
    report = {
        "points": scene.points,
        "lines": [{"group": gid, **_fields(s)} for gid, s in scene.calibrated_lines],
        "level_curves": [{"a": spec.a, "b": spec.b, "c": c, **_fields(s)} for spec, c, s in scene.level_curves],
        "diagonal": scene.diagonal,
    }
    _emit(report, args.output)
    return EXIT_OK


def cmd_synth(args) -> int:
    from .synthetic import SynthGroup, _specs
    from .writer import write_rows

    text = args.spec
    if text.startswith("@"):
        try:
            text = Path(text[1:]).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ValueError(f"--spec file {text[1:]!r} cannot be read: {reason}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--spec is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("--spec is nested too deeply to parse") from None
    # Every group is drawn and checked before the file is opened.
    groups = [SynthGroup(spec) for spec in _specs(doc, args.seed)]
    write_rows(args.output, ((g.spec.group_id, g.chunks()) for g in groups))
    _emit(
        {
            "written": str(args.output),
            "groups": [
                {"id": g.spec.group_id, "n": g.spec.n, "seed": g.spec.seed, "base_rate": g.base_rate}
                for g in groups
            ],
        }
    )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="calparity", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    shared = {
        "--input": dict(required=True, help="input CSV (group,score,label)"),
        "--output": dict(help="output file path"),
        "--group1": dict(help="group id to treat as G1"),
        "--binning": dict(default="exact", help="exact or fixed:B"),
        "--cost": dict(help="a1,b1,a2,b2 cost weights per group"),
        "--weighted-cost": dict(help="rfp,rfn per-sample weights"),
        "--mode": dict(choices=["deterministic", "mc"], default="deterministic"),
        "--seed": dict(type=_seed, help="seed for Monte Carlo mode"),
    }

    def add(name, handler, summary, *flags):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        return p

    add("stats", cmd_stats, "per-group rates, calibration, linearity", "--input", "--binning")
    add("postprocess-calibrated", cmd_postprocess_calibrated, "equal-cost post-processing", *shared)
    add("postprocess-eo", cmd_postprocess_eo, "equalized-odds flip baseline", "--input", "--output", "--group1")
    p = add("diagnose", cmd_diagnose, "multi-constraint impossibility diagnostics", "--input", "--group1")
    p.add_argument("--cost", required=True, help="a1,b1,a2,b2 first cost constraint")
    p.add_argument("--cost2", required=True, help="a1,b1,a2,b2 second cost constraint")
    p.add_argument("--tol", type=_finite_float, default=DIAGNOSE_TOL)
    p.add_argument("--delta-cal", type=_finite_float, required=True)
    p.add_argument("--delta-cost", type=_finite_float, required=True)
    p.add_argument("--matrix-max", type=_finite_float, required=True, help="asserted max entry magnitude M")
    p.add_argument("--denominator", type=int, required=True, help="asserted common denominator D")
    add("plot-data", cmd_plot_data, "FP/FN plane scene as JSON",
        "--input", "--output", "--group1", "--cost", "--weighted-cost")

    p = add("synth", cmd_synth, "write a synthetic CSV from a JSON spec")
    p.add_argument("--spec", required=True, help="JSON spec or @file")
    p.add_argument("--seed", type=_seed, default=0, help="base seed for derived group seeds")
    p.add_argument("--output", required=True)

    return parser


@functools.cache
def _freeze_at_exit() -> None:
    """Freeze every object at interpreter exit, once per process, so the final collections skip numpy's import."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_at_exit()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
