"""Command-line front end: stats, post-processing, diagnostics, plot data.

All reports are JSON on stdout with floats rounded to 12 significant
digits, so repeated runs with the same inputs, flags, and seed are
byte-identical. Exit codes: 0 success, 1 input or usage error, 2
infeasible instance.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import eo as eo_mod
from .cost import CostPair, CostSpec, cost, trivial_cost, weighted_cost_spec
from .dataset import GroupData, SynthGroup, SynthSpec, _whole, load_csv, row_chunks, write_csv, write_rows
from .impossibility import approximate_bound, build_matrix, exact_impossibility_check
from .metrics import analytic_rates, calibration_gap, linearity_residual, rate_point
from .parity import (
    MODE_DETERMINISTIC,
    MODE_MONTE_CARLO,
    REASON_COST_ORDER,
    AlreadyTrivialError,
    InterpolationPlan,
    compute_alpha,
    feasibility,
    mixture_calibration_gap,
    mixture_rate_point,
    realize_mixture,
)
from .scene import build_scene

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


def _encode(obj, depth: int = 0, key: str = "report"):
    """Yield the text ``json.dump(obj, indent=2)`` writes for ``obj``, floats through ``_number``.

    Dicts with string keys, lists, tuples, strings, numbers, booleans and
    None give exactly json's bytes. A NaN or infinity raises ValueError
    naming its nearest dict ``key``. A record array is checked whole here;
    its text comes as one more iterator, ``_encode_records``, made as it is
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
    chunk formats each distinct value once: ``np.unique`` over the float
    bits (so ``-0.0`` keeps its own text), then one ``_number`` per value.
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
            keys, inverse = np.unique(chunk[field].view(np.uint64), return_inverse=True)
            text = np.array([head + _number(x) for x in keys.view(np.float64).tolist()], dtype=object)
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
    return [float(p) for p in parts]


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


def _resolve_specs(args, g1: GroupData, g2: GroupData) -> dict[str, CostSpec]:
    """Per-group cost specs; --cost binds a1,b1 to G1 as currently assigned."""
    if (args.cost is None) == (args.weighted_cost is None):
        raise ValueError("provide exactly one of --cost a1,b1,a2,b2 or --weighted-cost rfp,rfn")
    if args.cost is not None:
        a1, b1, a2, b2 = _parse_floats(args.cost, 4, "--cost")
        return {g1.group_id: CostSpec(a1, b1), g2.group_id: CostSpec(a2, b2)}
    r_fp, r_fn = _parse_floats(args.weighted_cost, 2, "--weighted-cost")
    return {
        g1.group_id: weighted_cost_spec(r_fp, r_fn, g1.base_rate),
        g2.group_id: weighted_cost_spec(r_fp, r_fn, g2.base_rate),
    }


def _rates_dict(p) -> dict:
    return {"fp": p.c_fp, "fn": p.c_fn}


def cmd_stats(args) -> int:
    groups = load_csv(args.input, samples=False)
    binning, bins = _parse_binning(args.binning)
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
    # Rows are kept only to realize a Monte Carlo mixture or to write them back.
    groups = load_csv(args.input, samples=args.mode == "mc" or args.output is not None)
    g1, g2 = _two_groups(groups, args.group1)
    specs = _resolve_specs(args, g1, g2)
    binning, bins = _parse_binning(args.binning)
    mode = MODE_MONTE_CARLO if args.mode == "mc" else MODE_DETERMINISTIC
    if mode == MODE_MONTE_CARLO and args.seed is None:
        raise ValueError("--mode mc requires --seed")

    costs = {g.group_id: cost(rate_point(g), specs[g.group_id]) for g in (g1, g2)}

    def verdict_for(g1: GroupData, g2: GroupData):
        trivial2 = trivial_cost(g2.base_rate, specs[g2.group_id])
        return feasibility(costs[g1.group_id], costs[g2.group_id], trivial2)

    verdict = verdict_for(g1, g2)
    swapped = verdict.reason == REASON_COST_ORDER
    if swapped:
        g1, g2 = g2, g1
        verdict = verdict_for(g1, g2)

    report = {
        "group1": g1.group_id,
        "group2": g2.group_id,
        "swapped": swapped,
        "cost_specs": {gid: {"a": s.a, "b": s.b} for gid, s in specs.items()},
        "feasibility": verdict.to_json_dict(),
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
    out_groups, withheld = groups, None
    try:
        alpha = compute_alpha(verdict.g1_cost, verdict.g2_cost, verdict.trivial2_cost)
    except AlreadyTrivialError:
        report["status"] = "already_trivial"
        report["alpha"] = None
    else:
        plan = InterpolationPlan(alpha, g2.base_rate, mode, args.seed)
        report["status"] = "ok"
        report["alpha"] = alpha
        report["plan"] = plan.to_json_dict()
        post_rates = mixture_rate_point(g2, plan)
        report["post"] = {
            "g1_cost": verdict.g1_cost,
            "g2_cost": cost(post_rates, specs[g2.group_id]),
            "g2_gap": mixture_calibration_gap(g2, plan),
            "g2_rates": _rates_dict(post_rates),
        }
        if mode == MODE_MONTE_CARLO:
            mixture = realize_mixture(g2, plan)
            realized = mixture.realized
            report["realized"] = {
                "g2_cost": cost(rate_point(realized), specs[g2.group_id]),
                "g2_gap": calibration_gap(realized, binning, bins).gap,
                "withheld_fraction": float(mixture.withheld.mean()),
            }
            out_groups = [realized if g is g2 else g for g in groups]
            withheld = {g2.group_id: mixture.withheld}
    if args.output:
        write_csv(out_groups, args.output, withheld)
    _emit(report)
    return EXIT_OK


def cmd_postprocess_eo(args) -> int:
    groups = load_csv(args.input, samples=args.output is not None)
    g1, g2 = _two_groups(groups, args.group1)
    solution = eo_mod.solve_eo(g1, g2)
    if solution.status != eo_mod.STATUS_OPTIMAL:
        _emit(solution.to_json_dict())
        return EXIT_INFEASIBLE
    plan = solution.plan
    report = solution.to_json_dict()
    report["pre_gaps"] = {g.group_id: calibration_gap(g).gap for g in (g1, g2)}
    report["calibration_damage"] = {
        g.group_id: eo_mod.eo_calibration_damage(g, plan) for g in (g1, g2)
    }
    if args.output:
        # Checked before the file is opened; each group's scores are flipped as it is written.
        rows = [(g, plan.for_group(g.group_id), g.samples()[1]) for g in groups]
        flipped = (
            (g.group_id, row_chunks(eo_mod.flipped_scores(g, f.q_n2p, f.q_p2n), labels))
            for g, f, labels in rows
        )
        write_rows(args.output, flipped)
    _emit(report)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    groups = load_csv(args.input, samples=False)
    g1, g2 = _two_groups(groups, args.group1)
    a1, b1, a2, b2 = _parse_floats(args.cost, 4, "--cost")
    pair = CostPair(CostSpec(a1, b1), CostSpec(a2, b2))
    a1p, b1p, a2p, b2p = _parse_floats(args.cost2, 4, "--cost2")
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
            "exact": exact.to_json_dict(),
            "bound": bound.to_json_dict(),
            "rate_bound_respected": bool(max(rates) <= bound.rate_bound),
        }
    )
    return EXIT_OK


def cmd_plot_data(args) -> int:
    groups = load_csv(args.input, samples=False)
    g1, g2 = _two_groups(groups, args.group1)
    specs = _resolve_specs(args, g1, g2)
    _emit(build_scene([g1, g2], specs).to_json_dict(), args.output)
    return EXIT_OK


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


def cmd_synth(args) -> int:
    text = args.spec
    if text.startswith("@"):
        text = Path(text[1:]).read_text(encoding="utf-8")
    doc = json.loads(text)
    entries = doc.get("groups") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise ValueError("synth spec must be an object with a 'groups' list")
    if not entries:
        raise ValueError("synth spec needs at least one group entry")
    derived = np.random.SeedSequence(args.seed).generate_state(len(entries), dtype=np.uint64)
    specs, first_index = [], {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"synth spec groups[{i}] must be an object, got {entry!r}")
        # load_csv strips ids and merges equal ones, so those would not read back.
        gid = _spec_field(entry, i, "id", str)
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
    # Every group is drawn and checked before the file is opened.
    groups = [SynthGroup(spec) for spec in specs]
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
    p.add_argument("--tol", type=_finite_float, default=1e-9)
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


def main(argv=None) -> int:
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
