"""Workload inputs and the CLI invocation list each workload runs.

Inputs are ``calparity synth`` specs. The workload seed is passed to
``synth --seed`` and the Monte Carlo ``--seed`` is derived from it, so the
program sees only generated files and flags. ``scale`` divides every group
size, for the self-test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# 1e6 rows, 29 distinct scores, ~11.7 MB: CSV parse dominates every call.
_ONE_MILLION = (("A", 500_000, "beta_grid", (2, 4, 20)), ("B", 500_000, "grid", (0.1, 0.9, 9)))

# (group id, rows, family, params) per group
SPECS = {
    "report-1m": _ONE_MILLION,
    "rewrite-1m": _ONE_MILLION,  # the commands write 1e6-row CSVs beside the read
    # ~92k distinct scores per group, ~3 MB: per-atom work and huge reports.
    "atoms-200k": (("A", 100_000, "beta_grid", (2, 4, 1e6)), ("B", 100_000, "beta_grid", (3, 3, 1e6))),
}

# The 4-row startup probe input. The per-group seeds are fixed so that both
# groups hold both classes and the equal-cost instance is feasible.
TINY_SPEC = json.dumps(
    {
        "groups": [
            {"id": "A", "n": 2, "family": "grid", "params": [0.1, 0.9, 9], "seed": 4},
            {"id": "B", "n": 2, "family": "grid", "params": [0.1, 0.9, 9], "seed": 1004},
        ]
    }
)
TINY_MC_SEED = 1

DIAGNOSE_FLAGS = (
    "--cost", "1,0,1,0", "--cost2", "0,1,0,1", "--delta-cal", "0.05",
    "--delta-cost", "0.05", "--matrix-max", "2", "--denominator", "12",
)  # fmt: skip


@dataclass(frozen=True)
class Invocation:
    label: str  # stem of the per-command metric, e.g. "calibrated_mc" -> calibrated_mc_s
    argv: tuple[str, ...]
    group_rows: tuple[tuple[str, int], ...]  # rows per group id the command reads (synth: writes)
    output: str | None = None
    output_header: str | None = None
    expect_output_equal: str | None = None  # a file the output must equal byte for byte

    @property
    def rows(self) -> int:
        return sum(n for _, n in self.group_rows)


def synth_spec(name: str, scale: int = 1) -> str:
    return json.dumps(
        {
            "groups": [
                {"id": gid, "n": max(n // scale, 2), "family": family, "params": list(params)}
                for gid, n, family, params in SPECS[name]
            ]
        }
    )


def group_rows(name: str, scale: int = 1) -> tuple[tuple[str, int], ...]:
    return tuple((gid, max(n // scale, 2)) for gid, n, _, _ in SPECS[name])


def mc_seed(seed: int) -> int:
    return (seed * 7919 + 17) % 2**31


def invocations(name: str, seed: int, data: Path, work: Path, scale: int = 1) -> list[Invocation]:
    """The commands one pass of workload ``name`` runs, in order."""
    groups = group_rows(name, scale)
    src = ("--input", str(data))
    mc = ("--weighted-cost", "1,3", "--mode", "mc", "--seed", str(mc_seed(seed)))

    def inv(label, *argv, **kw):
        return Invocation(label, argv, groups, **kw)

    if name == "report-1m":
        return [
            inv("stats", "stats", *src),
            inv("calibrated", "postprocess-calibrated", *src, "--weighted-cost", "1,3"),
            inv("diagnose", "diagnose", *src, *DIAGNOSE_FLAGS),
            inv("plot_data", "plot-data", *src, "--weighted-cost", "1,3"),
        ]
    if name == "rewrite-1m":
        out_mc, out_eo, out_synth = (str(work / f) for f in ("calibrated_mc.csv", "eo.csv", "synth.csv"))
        return [
            inv("calibrated_mc", "postprocess-calibrated", *src, *mc, "--output", out_mc,
                output=out_mc, output_header="group,score,label,withheld"),
            inv("eo", "postprocess-eo", *src, "--output", out_eo,
                output=out_eo, output_header="group,score,label"),
            inv("synth", "synth", "--spec", synth_spec(name, scale), "--seed", str(seed),
                "--output", out_synth, output=out_synth, output_header="group,score,label",
                expect_output_equal=str(data)),
        ]  # fmt: skip
    if name == "atoms-200k":
        return [
            inv("stats", "stats", *src),
            inv("stats_fixed", "stats", *src, "--binning", "fixed:100"),
            inv("calibrated_mc", "postprocess-calibrated", *src, *mc),
            inv("eo", "postprocess-eo", *src),
        ]
    raise ValueError(f"unknown workload {name!r}")


def startup_probes(tiny: Path, work: Path) -> list[Invocation]:
    """Every subcommand once on the 4-row file, so each layer is reached.

    The first, ``stats``, is the startup probe of the untraced run; the
    traced run appends all of them to each pass.
    """
    groups = (("A", 2), ("B", 2))
    src = ("--input", str(tiny))
    out_mc, out_eo, out_synth = (str(work / f) for f in ("tiny_mc.csv", "tiny_eo.csv", "tiny_synth.csv"))

    def inv(*argv, **kw):
        return Invocation("startup", argv, groups, **kw)

    return [
        inv("stats", *src),
        inv("postprocess-calibrated", *src, "--weighted-cost", "1,3", "--mode", "mc",
            "--seed", str(TINY_MC_SEED), "--output", out_mc,
            output=out_mc, output_header="group,score,label,withheld"),
        inv("postprocess-eo", *src, "--output", out_eo, output=out_eo, output_header="group,score,label"),
        inv("diagnose", *src, *DIAGNOSE_FLAGS),
        inv("plot-data", *src, "--weighted-cost", "1,3"),
        inv("synth", "--spec", TINY_SPEC, "--output", out_synth, output=out_synth,
            output_header="group,score,label", expect_output_equal=str(tiny)),
    ]  # fmt: skip
