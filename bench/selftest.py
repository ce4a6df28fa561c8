"""The benchmark's own self-test: ``python3 bench/run.py --selftest``.

Runs every workload end to end at 1/1000 of its size, untraced and traced,
then checks the self-time arithmetic on a hand-built span tree, that
corrupted outputs are caught by the checker, and that one seed always
synthesizes the same input bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import checks
import run
import tracing
import workloads

SCALE = 1000
SEED = 3


def _span_arithmetic() -> list[str]:
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9].
    spans = [
        tracing.Span(0, "cli.main", "bench", None, 1, 0.0, 10.0),
        tracing.Span(1, "dataset.load_csv", "cli", 0, 1, 1.0, 4.0),
        tracing.Span(2, "metrics.rate_point", "dataset", 1, 1, 2.0, 3.0),
        tracing.Span(3, "eo.solve_eo", "cli", 0, 1, 5.0, 9.0),
    ]
    own = tracing.self_times(spans)
    expected = {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    problems = [f"span {k}: self {own[k]} != {v}" for k, v in expected.items() if own[k] != v]
    if sum(own.values()) != spans[0].duration:
        problems.append(f"self times sum to {sum(own.values())}, root lasts {spans[0].duration}")
    return problems


def _workloads_end_to_end() -> list[str]:
    """Each workload runs untraced and traced and reports what BENCHMARK.json declares."""
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in declared["workloads"]) != sorted(workloads.SPECS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for name in workloads.SPECS:
        for traced, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run(name, SEED, 0.0, traced, SCALE)
            tag = f"{name} trace={int(traced)}"
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} invocations failed")
            units = {m["name"]: m["unit"] for m in declared[kind]}
            if {k: v["unit"] for k, v in result["metrics"].items()} != units:
                problems.append(f"{tag}: metrics or units differ from BENCHMARK.json {kind}")
            for metric, entry in result["metrics"].items():
                if not math.isfinite(entry["value"]):
                    problems.append(f"{tag}: {metric} = {entry['value']}")
    return problems


def _corruption_is_caught() -> list[str]:
    checker = run.Checker()
    inputs = run.set_up("report-1m", SEED, checker, SCALE)
    mc = next(i for i in inputs.probes if "--mode" in i.argv)
    r = run.run_cli(mc.argv, inputs.work)
    good_stdout, good_output = r.stdout, Path(mc.output).read_bytes()
    report = checks.strict_json(good_stdout)
    cost = repr(report["post"]["g2_cost"]).encode()
    report["post"]["g2_cost"] += 1e-6
    moved = json.dumps(report, indent=2).encode()
    problems = []
    if checks.check_stdout(mc, 0, good_stdout)[0] or checks.check_output(mc, good_output, None):
        problems.append("the unmodified outputs fail the checks")
    bad_stdouts = {
        "post.g2_cost moved": moved,
        "NaN in the report": good_stdout.replace(cost, b"NaN", 1),
        "truncated report": good_stdout[: len(good_stdout) // 2],
    }
    for what, stdout in bad_stdouts.items():
        if not checks.check_stdout(mc, 0, stdout)[0]:
            problems.append(f"{what} passed the stdout check")
    dropped_row = good_output[: good_output.rstrip(b"\r\n").rfind(b"\n") + 1]
    if not checks.check_output(mc, dropped_row, None):
        problems.append("an output CSV missing its last row passed the output check")
    rerun = run.Checker()
    rerun.check(mc, 0, good_stdout)
    rerun.check(mc, 0, good_stdout.replace(b"\n", b" \n", 1))
    if rerun.failed != 1:
        problems.append("a repeat with different bytes was not counted as failed")
    return problems


def _same_seed_same_input() -> list[str]:
    digests = []
    for seed in (SEED, SEED, SEED + 1):
        inputs = run.set_up("atoms-200k", seed, run.Checker(), SCALE)
        digests.append(run._digest(inputs.data.read_bytes()))
    problems = []
    if digests[0] != digests[1]:
        problems.append("the same seed gave different input bytes")
    if digests[0] == digests[2]:
        problems.append("different seeds gave identical input bytes")
    return problems


def main() -> int:
    problems = []
    for check in (_span_arithmetic, _corruption_is_caught, _same_seed_same_input, _workloads_end_to_end):
        found = check()
        print(f"selftest {check.__name__.strip('_')}: {'ok' if not found else 'FAILED'}")
        problems += found
    for problem in problems:
        print(f"FAILED {problem}")
    print("selftest " + ("ok" if not problems else f"failed ({len(problems)} problems)"))
    return 0 if not problems else 1
