"""Golden-corpus replay: every subcommand against recorded reports and files.

``tests/golden/inputs`` holds the input CSVs (500 rows or fewer each) and
``tests/golden/expected`` the stdout, output file, exit code and stderr that
each case in ``CASES`` produced when the corpus was recorded. Replays run
``calparity.cli.main`` in-process from a temporary directory, so paths in the
reports are the relative names below.

Every case but the two ``eo_*`` ones must reproduce its recorded stdout and
output file byte for byte. The ``eo_*`` cases must match exit codes, keys,
strings, ints and every CSV column except ``score`` exactly, and floats,
scores included, to 12 significant digits: the flip LP's affine
coefficients may move in their last bits when the summation order changes,
and with them the non-vertex flip probabilities and the ``repr`` of flipped
scores.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from calparity import dataset
from calparity.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"

REL_TOL = 1e-11
ABS_TOL = 1e-12

SYNTH_SPEC = json.dumps(
    {
        "groups": [
            {"id": "A", "n": 120, "family": "beta_grid", "params": [2, 5, 12], "shift": 0.1},
            {"id": "B", "n": 80, "family": "point_mass", "params": [0.3]},
            {"id": "C", "n": 100, "family": "grid", "params": [0.0, 1.0, 5], "seed": 9},
        ]
    }
)

DIAGNOSE_FLAGS = (
    "--delta-cal", "0.05", "--delta-cost", "0.05", "--matrix-max", "2", "--denominator", "12",
)

# name -> (argv, output file written by the command or None)
CASES = {
    "stats_exact": (["stats", "--input", "mixed.csv"], None),
    "stats_fixed": (["stats", "--input", "mixed.csv", "--binning", "fixed:7"], None),
    "stats_edges_exact": (["stats", "--input", "edges.csv"], None),
    "stats_edges_fixed": (["stats", "--input", "edges.csv", "--binning", "fixed:4"], None),
    "stats_bad_row": (["stats", "--input", "bad.csv"], None),
    "calibrated_ok": (
        ["postprocess-calibrated", "--input", "mixed.csv", "--weighted-cost", "1,3",
         "--output", "calibrated_ok.csv"],
        "calibrated_ok.csv",
    ),
    "calibrated_fixed": (
        ["postprocess-calibrated", "--input", "mixed.csv", "--cost", "1,2,1,2",
         "--binning", "fixed:5"],
        None,
    ),
    "calibrated_swapped": (
        ["postprocess-calibrated", "--input", "mixed.csv", "--weighted-cost", "1,3",
         "--group1", "B"],
        None,
    ),
    "calibrated_infeasible": (
        ["postprocess-calibrated", "--input", "infeasible.csv", "--cost", "1,0,1,0"],
        None,
    ),
    "calibrated_trivial": (
        ["postprocess-calibrated", "--input", "trivial.csv", "--cost", "1,0,1,0",
         "--output", "calibrated_trivial.csv"],
        "calibrated_trivial.csv",
    ),
    "calibrated_mc": (
        ["postprocess-calibrated", "--input", "mixed.csv", "--weighted-cost", "1,3",
         "--mode", "mc", "--seed", "4", "--output", "calibrated_mc.csv"],
        "calibrated_mc.csv",
    ),
    "calibrated_mc_fixed": (
        ["postprocess-calibrated", "--input", "edges.csv", "--cost", "1,1,1,1",
         "--mode", "mc", "--seed", "8", "--binning", "fixed:3"],
        None,
    ),
    "eo_mixed": (["postprocess-eo", "--input", "mixed.csv", "--output", "eo_mixed.csv"], "eo_mixed.csv"),
    "eo_edges": (["postprocess-eo", "--input", "edges.csv", "--output", "eo_edges.csv"], "eo_edges.csv"),
    "diagnose": (
        ["diagnose", "--input", "mixed.csv", "--cost", "1,0,1,0", "--cost2", "0,1,0,1", *DIAGNOSE_FLAGS],
        None,
    ),
    "plot_stdout": (["plot-data", "--input", "mixed.csv", "--weighted-cost", "1,3"], None),
    "plot_output": (
        ["plot-data", "--input", "edges.csv", "--cost", "1,1,2,1", "--output", "plot_output.json"],
        "plot_output.json",
    ),
    "synth": (["synth", "--spec", SYNTH_SPEC, "--seed", "7", "--output", "synth.csv"], "synth.csv"),
}


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process from the current directory; (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_close(got, want, where="$"):
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def assert_csv_close(got_text: str, want_text: str):
    got = list(csv.reader(io.StringIO(got_text, newline="")))
    want = list(csv.reader(io.StringIO(want_text, newline="")))
    assert got[0] == want[0] and len(got) == len(want)
    score = want[0].index("score")
    for lineno, (g, w) in enumerate(zip(got[1:], want[1:]), start=2):
        assert g[:score] + g[score + 1:] == w[:score] + w[score + 1:], f"row {lineno}"
        assert math.isclose(float(g[score]), float(w[score]), rel_tol=REL_TOL, abs_tol=ABS_TOL), f"row {lineno}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_replay_matches_corpus(name, tmp_path, monkeypatch):
    argv, output = CASES[name]
    for path in INPUTS.iterdir():
        shutil.copy(path, tmp_path / path.name)
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run_case(argv)

    recorded = json.loads((EXPECTED / "exits.json").read_text(encoding="utf-8"))[name]
    assert code == recorded["exit"]
    assert stderr == recorded["stderr"]
    want_stdout = (EXPECTED / f"{name}.stdout").read_text(encoding="utf-8")
    if not name.startswith("eo_"):
        assert stdout == want_stdout
        if output is not None:
            assert (tmp_path / output).read_bytes() == (EXPECTED / output).read_bytes()
    if want_stdout:
        assert_close(json.loads(stdout), json.loads(want_stdout))
    else:
        assert stdout == ""
    if output is not None:
        got = (tmp_path / output).read_bytes().decode("utf-8")
        want = (EXPECTED / output).read_bytes().decode("utf-8")
        if output.endswith(".json"):
            assert_close(json.loads(got), json.loads(want))
        else:
            assert "\r\n" in got and got.count("\r\n") == want.count("\r\n")
            assert_csv_close(got, want)


def _permuted(data: bytes) -> bytes:
    """The rows in a seeded random order, each group's first row moved up so that the groups first appear as before."""
    header, *rows = data.splitlines(keepends=True)
    ids = list(dict.fromkeys(row.split(b",")[0] for row in rows))
    rows = [rows[i] for i in np.random.default_rng(5).permutation(len(rows))]
    heads = [next(i for i, row in enumerate(rows) if row.split(b",")[0] == gid) for gid in ids]
    return b"".join([header, *(rows[i] for i in heads), *(row for i, row in enumerate(rows) if i not in heads)])


def _line_ends_swapped(data: bytes) -> bytes:
    return data.replace(b"\r\n", b"\n") if b"\r\n" in data else data.replace(b"\n", b"\r\n")


# Changes of an input that leave every group's atom table as it is.
CHANGES = {"permuted": _permuted, "bom": lambda data: codecs.BOM_UTF8 + data, "line_ends": _line_ends_swapped}
# Cases whose reports depend on their input only through its atom tables, by input. edges.csv quotes an id
# ("B, west"), so ``csv`` reads it from its first quoted row on.
METAMORPHIC = {
    "mixed.csv": ["stats_exact", "stats_fixed", "diagnose", "plot_stdout", "calibrated_fixed"],
    "edges.csv": ["stats_edges_exact", "stats_edges_fixed"],
}


@pytest.mark.parametrize("change", sorted(CHANGES))
@pytest.mark.parametrize("repetitive", [True, False], ids=["distinct-lines", "whole-blocks"])
def test_changed_input_prints_the_corpus(change, repetitive, tmp_path, monkeypatch):
    """mixed.csv or edges.csv with its rows permuted, a BOM prepended, or LF and CRLF swapped prints the recorded
    reports.

    The input is read 64 bytes at a time and row-free codes fold every 7
    entries, so folds fall inside each group and, once the rows are
    permuted, between interleaved groups; every block is parsed by its
    distinct lines, or every block whole.
    """
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(dataset, "_CHUNK", 64)
    monkeypatch.setattr(dataset, "_ATOM_CHUNK", 7)
    monkeypatch.setattr(dataset, "_repetitive", lambda block: repetitive)
    exits = json.loads((EXPECTED / "exits.json").read_text(encoding="utf-8"))
    for source, names in METAMORPHIC.items():
        original = (INPUTS / source).read_bytes()
        changed = CHANGES[change](original)
        assert changed != original
        (tmp_path / source).write_bytes(changed)
        for name in names:
            code, stdout, stderr = run_case(CASES[name][0])
            assert (code, stderr) == (exits[name]["exit"], exits[name]["stderr"]), name
            assert stdout == (EXPECTED / f"{name}.stdout").read_text(encoding="utf-8"), name


def _repeated(data: bytes, k: int = 3) -> bytes:
    """Every row ``k`` times over, each copy next to its row."""
    header, *rows = data.splitlines(keepends=True)
    return b"".join([header, *(row * k for row in rows)])


def _groups_swapped(data: bytes) -> bytes:
    """A two-group file with the second group's rows first; each group's rows keep their order."""
    header, *rows = data.splitlines(keepends=True)
    first = rows[0].split(b",")[0]
    later = [row for row in rows if row.split(b",")[0] != first]
    return b"".join([header, *later, *(row for row in rows if row.split(b",")[0] == first)])


def _reports(tmp_path, names: list[str], data: bytes, group1: str | None = None) -> dict:
    """Each case's exit code and parsed report, run on ``data`` as mixed.csv, with ``--group1`` added if given."""
    (tmp_path / "mixed.csv").write_bytes(data)
    reports = {}
    for name in names:
        argv = CASES[name][0]
        assert "--input" in argv and argv[argv.index("--input") + 1] == "mixed.csv", name
        if group1 is not None and not name.startswith("stats") and "--group1" not in argv:
            argv = [*argv, "--group1", group1]
        code, stdout, stderr = run_case(argv)
        assert stderr == "", name
        reports[name] = code, json.loads(stdout)
    return reports


def _near(got, want) -> None:
    """Equal within 1e-12 relative, for floats computed through products of counts."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _near(got[key], want[key])
    else:
        assert math.isclose(got, want, rel_tol=1e-12), (got, want)


REPEATED = ["stats_exact", "stats_fixed", "calibrated_ok", "calibrated_fixed", "calibrated_swapped", "eo_mixed",
            "diagnose", "plot_stdout"]  # fmt: skip


def test_repeated_rows_change_only_n(tmp_path, monkeypatch):
    """Every row of mixed.csv three times over: each group's ``n`` triples and nothing else moves.

    Rates, base rates, calibration gaps and bins, alpha and the EO plan and
    rates depend on the counts only through exact ratios, so their text
    stays the same. ``analytic_rates``, ``linearity_residual`` and the EO
    ``calibration_damage`` go through float products of the counts and are
    compared within 1e-12 relative.
    """
    monkeypatch.chdir(tmp_path)
    data = (INPUTS / "mixed.csv").read_bytes()
    original = _reports(tmp_path, REPEATED, data)
    repeated = _reports(tmp_path, REPEATED, _repeated(data))
    for name in REPEATED:
        (code, got), (want_code, want) = repeated[name], original[name]
        assert code == want_code, name
        for g, w in zip(got.get("groups", []), want.get("groups", [])):
            assert g.pop("n") == 3 * w.pop("n")
            for key in ("analytic_rates", "linearity_residual"):
                _near(g.pop(key), w.pop(key))
        if "calibration_damage" in want:
            _near(got.pop("calibration_damage"), want.pop("calibration_damage"))
        assert got == want, name


SWAPPED = ["stats_exact", "calibrated_ok", "calibrated_fixed", "calibrated_swapped", "calibrated_mc", "eo_mixed",
           "diagnose", "plot_stdout"]  # fmt: skip


def test_swapped_group_order_changes_no_report(tmp_path, monkeypatch):
    """mixed.csv with its second group's rows first and ``--group1`` fixed: the same reports, MC draws included.

    ``stats`` takes no ``--group1`` and lists the groups in file order, so
    its groups come in the other order.
    """
    monkeypatch.chdir(tmp_path)
    data = (INPUTS / "mixed.csv").read_bytes()
    assert _groups_swapped(data) != data
    original = _reports(tmp_path, SWAPPED, data, group1="A")
    swapped = _reports(tmp_path, SWAPPED, _groups_swapped(data), group1="A")
    swapped["stats_exact"][1]["groups"].reverse()
    assert swapped == original
