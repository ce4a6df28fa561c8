"""Correctness checks applied to every CLI invocation the benchmark makes.

Each check returns a list of problems; an invocation with any problem
counts as failed. The paper's guarantees are checked at the acceptance
suite's tolerance (1e-12) plus the rounding of the 12-significant-digit
JSON the CLI prints.
"""

from __future__ import annotations

import json
import math

from workloads import Invocation

EXACT = 1e-12  # acceptance-suite tolerance for the exact identities
ROUNDING = 5e-12  # relative error of one float printed with 12 significant digits
RATE_MATCH = 1e-9  # equalized-odds rate match, as eo.RATE_MATCH_TOL
MC_SIGMAS = 4.0


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in JSON")


def strict_json(data: bytes):
    return json.loads(data, parse_constant=_reject_constant)


def _close(x: float, y: float, *magnitudes: float) -> bool:
    """|x - y| within EXACT plus the JSON rounding of every input that fed them."""
    return abs(x - y) <= EXACT + 2.0 * ROUNDING * sum(abs(m) for m in (x, y, *magnitudes))


def _check_calibrated(report: dict, inv: Invocation) -> list[str]:
    if report.get("status") != "ok":
        return [f"status {report.get('status')!r}, expected 'ok'"]
    problems = []
    post, pre, alpha = report["post"], report["pre"], report["alpha"]
    if not _close(post["g2_cost"], post["g1_cost"]):
        problems.append(f"post.g2_cost {post['g2_cost']} != post.g1_cost {post['g1_cost']}")
    contracted = (1.0 - alpha) * pre["g2_gap"]
    if not _close(post["g2_gap"], contracted, pre["g2_gap"], alpha * pre["g2_gap"]):
        problems.append(f"post.g2_gap {post['g2_gap']} != (1-alpha)*pre.g2_gap {contracted}")
    if "realized" in report:
        n = dict(inv.group_rows)[report["group2"]]
        withheld = report["realized"]["withheld_fraction"]
        limit = MC_SIGMAS * math.sqrt(alpha * (1.0 - alpha) / n)
        if abs(withheld - alpha) > limit:
            problems.append(f"withheld_fraction {withheld} not within {limit} of alpha {alpha}")
    return problems


def _check_eo(report: dict, inv: Invocation) -> list[str]:
    if report.get("status") != "optimal":
        return [f"status {report.get('status')!r}, expected 'optimal'"]
    first, second = report["rates"].values()
    return [
        f"EO {k} rates differ: {first[k]} vs {second[k]}"
        for k in ("fp", "fn")
        if abs(first[k] - second[k]) > RATE_MATCH
    ]


def _check_stats(report: dict, inv: Invocation) -> list[str]:
    n = sum(g["n"] for g in report["groups"])
    return [] if n == inv.rows else [f"stats counts {n} rows, input has {inv.rows}"]


_REPORT_CHECKS = {
    "postprocess-calibrated": _check_calibrated,
    "postprocess-eo": _check_eo,
    "stats": _check_stats,
}


def emitted_bins(inv: Invocation, report: dict) -> int:
    """Calibration bins the invocation printed; only ``stats`` prints them."""
    if inv.argv[0] != "stats":
        return 0
    return sum(len(g["calibration"]["bins"]) for g in report["groups"])


def check_stdout(inv: Invocation, returncode: int, stdout: bytes) -> tuple[list[str], object]:
    """Problems with one invocation's exit code and report, and the parsed report."""
    if returncode != 0:
        return [f"exit code {returncode}"], None
    try:
        report = strict_json(stdout)
    except ValueError as exc:
        return [f"stdout is not strict JSON: {exc}"], None
    check = _REPORT_CHECKS.get(inv.argv[0])
    try:
        return (check(report, inv) if check else []), report
    except (KeyError, TypeError, ValueError) as exc:
        return [f"report lacks an expected field: {exc!r}"], report


def check_output(inv: Invocation, output: bytes, expected: bytes | None) -> list[str]:
    """Problems with one invocation's output CSV: header, row count, exact content."""
    problems = []
    header, _, _ = output.partition(b"\n")
    if header.decode("utf-8", "replace").rstrip("\r") != inv.output_header:
        problems.append(f"output header {header[:80]!r}, expected {inv.output_header!r}")
    rows = output.count(b"\n") - 1
    if rows != inv.rows:
        problems.append(f"output has {rows} rows, input has {inv.rows}")
    if expected is not None and output != expected:
        problems.append(f"output differs from {inv.expect_output_equal}")
    return problems
