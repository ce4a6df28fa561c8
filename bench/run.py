"""Benchmark of the calparity CLI: seeded workloads, checked outputs, traced layers.

    python3 bench/run.py --workload report-1m --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --selftest

Load model: a closed loop with one client. One CLI subprocess runs at a
time and the next starts when the previous one exits. A run first sets up
its inputs with ``calparity synth`` (``setup_s`` is the median of several
set-ups), then cycles through the workload's invocation list, each call
followed by a startup probe on a 4-row file, until ``--seconds`` have
passed. Every invocation is checked (see checks.py) and every repeat of an
argv must print, and write, the same bytes.

The host's speed drifts by tens of percent over minutes, so the reference
kernel (reference.py) runs between the timed children, and the end-to-end
times are scaled to a machine on which that kernel takes ``REFERENCE_S``:
a wall time ``w`` measured next to a reference wall time ``r`` counts as
``w * REFERENCE_S / r``. The unscaled figures are printed beside them.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` each pass is the invocation list plus every subcommand on the
4-row file; the passes run in-process through ``calparity.cli.main``,
alternately untraced and traced (tracing.py), after an untraced warm-up
pass whose bytes every later pass must equal. The result holds the
per-layer metrics. Human-readable lines (provenance,
per-command medians with sample counts, layer shares) come first; the last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.metadata
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads
from workloads import Invocation

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
STARTUP_PROBES = 3  # per timed invocation
REFERENCE = Path(__file__).resolve().parent / "reference.py"
REFERENCE_S = 0.5  # nominal wall time of the reference kernel; about its median on a 2-vCPU Xeon VM
REFERENCE_DIGEST = b"b9f6a5624d2bdd601ab8a160bf4728d953807a00c67744dad1d8cf6891a47e7a\n"
IMPORT_REPEATS = 5
ENTRY = "import sys; from calparity.cli import main; sys.exit(main())"  # as the console script
IMPORT_PROBE = "import time; t = time.perf_counter(); import calparity.cli; print(time.perf_counter() - t)"


class SetupError(RuntimeError):
    """The inputs could not be generated, so nothing can be measured."""


@dataclass
class ChildResult:
    returncode: int
    wall: float
    maxrss_mb: float
    stdout: bytes


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], work: Path) -> ChildResult:
    """One interpreter, timed from spawn to exit; rusage is this child's alone."""
    with open(work / "stdout", "w+b") as out, open(work / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout)


def run_cli(argv: tuple[str, ...], work: Path) -> ChildResult:
    return run_child(["-c", ENTRY, *argv], work)


def reference_scale(work: Path) -> tuple[float, float]:
    """Run the reference kernel once: (its wall time, the factor that scales a wall time next to it)."""
    r = run_child([str(REFERENCE)], work)
    if r.returncode != 0 or r.stdout != REFERENCE_DIGEST:
        raise SetupError(f"the reference kernel exited {r.returncode} and printed {r.stdout[:80]!r}")
    return r.wall, REFERENCE_S / r.wall


def _drop_output(inv: Invocation) -> None:
    """Remove an earlier run's output file, so a run that writes none is caught."""
    if inv.output:
        Path(inv.output).unlink(missing_ok=True)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Checker:
    """Checks every invocation; repeats of one argv must give identical bytes."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    _seen: dict = field(default_factory=dict)  # argv -> (stdout digest, output digest, bins)

    def check(self, inv: Invocation, returncode: int, stdout: bytes) -> int:
        """Record one invocation; returns the calibration bins its report printed."""
        self.attempted += 1
        output = Path(inv.output).read_bytes() if inv.output and os.path.exists(inv.output) else None
        key = (_digest(stdout), _digest(output) if output is not None else None)
        seen = self._seen.get(inv.argv)
        if seen is not None and returncode == 0:
            if seen[:2] == key:
                return seen[2]
            return self._fail(inv, ["bytes differ from an earlier run of the same argv"])
        problems, report = checks.check_stdout(inv, returncode, stdout)
        if inv.output:
            if output is None:
                problems.append("no output file written")
            else:
                expected = Path(inv.expect_output_equal).read_bytes() if inv.expect_output_equal else None
                problems += checks.check_output(inv, output, expected)
        if problems:
            return self._fail(inv, problems)
        bins = checks.emitted_bins(inv, report)
        self._seen[inv.argv] = (*key, bins)
        return bins

    def _fail(self, inv: Invocation, problems: list[str]) -> int:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{inv.label} {' '.join(inv.argv)[:160]}: {'; '.join(problems)}")
        return 0


@dataclass
class Inputs:
    work: Path
    data: Path
    passes: list[Invocation]
    probes: list[Invocation]
    setup_s: list[float]  # scaled by the reference kernel
    setup_raw_s: list[float]
    maxrss_mb: float


def set_up(name: str, seed: int, checker: Checker, scale: int = 1) -> Inputs:
    """Fresh work directory, then the workload input synthesized SETUP_REPEATS times.

    Each synth is followed by the reference kernel, which scales its time.
    """
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data, tiny = work / "input.csv", work / "tiny.csv"
    spec = workloads.synth_spec(name, scale)
    setup = Invocation("setup", ("synth", "--spec", spec, "--seed", str(seed), "--output", str(data)),
                       workloads.group_rows(name, scale), str(data), "group,score,label")  # fmt: skip
    times, raw, maxrss = [], [], 0.0
    for _ in range(SETUP_REPEATS):
        r = run_cli(setup.argv, work)
        if r.returncode != 0:
            raise SetupError(f"calparity synth exited {r.returncode}: {(work / 'stderr').read_text()[-500:]}")
        checker.check(setup, r.returncode, r.stdout)
        _, speed = reference_scale(work)
        times.append(r.wall * speed)
        raw.append(r.wall)
        maxrss = max(maxrss, r.maxrss_mb)
    r = run_cli(("synth", "--spec", workloads.TINY_SPEC, "--output", str(tiny)), work)
    if r.returncode != 0:
        raise SetupError(f"calparity synth of the 4-row file exited {r.returncode}")
    return Inputs(
        work,
        data,
        workloads.invocations(name, seed, data, work, scale),
        workloads.startup_probes(tiny, work),
        times,
        raw,
        maxrss,
    )


def input_facts(path: Path) -> dict:
    distinct: dict[str, set] = defaultdict(set)
    rows = 0
    with open(path, "rb") as fh:
        next(fh)
        for rows, line in enumerate(fh, start=1):
            gid, score, _ = line.split(b",")
            distinct[gid.decode()].add(score)
    return {
        "rows": rows,
        "bytes": path.stat().st_size,
        "distinct_scores": {g: len(s) for g, s in distinct.items()},
    }


def _read(path: Path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def provenance(name: str, seed: int, inputs: Inputs) -> dict:
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = [
        f"L{_read(d / 'level')} {_read(d / 'type')} {_read(d / 'size')}"
        for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    ]
    return {
        "workload": name,
        "seed": seed,
        "mc_seed": workloads.mc_seed(seed),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "input": input_facts(inputs.data),
        "load_model": "closed loop, one client, one CLI subprocess at a time",
    }


def _median_line(name: str, values: list[float], unit: str) -> str:
    """Median with its sample count, plus the highest percentile with >= 10 samples beyond it."""
    line = f"{name:<16} median {statistics.median(values):.6g} {unit} n={len(values)}"
    for pct in (99.9, 99.0, 90.0):
        if len(values) * (1.0 - pct / 100.0) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]
            return f"{line} p{pct:g} {cut:.6g} {unit}"
    return line


def measure(name: str, seed: int, seconds: float, scale: int = 1) -> tuple[dict, Checker, list[str]]:
    """End-to-end run: subprocess invocations only, tracing off.

    Each timed invocation is followed by STARTUP_PROBES startup probes and
    then the reference kernel. A probe is scaled by the reference run after
    it, an invocation by the mean of the reference runs around it. Once
    every command of the workload has run, the loop stops before a step
    whose median so far would end it past ``seconds``.
    """
    checker = Checker()
    inputs = set_up(name, seed, checker, scale)
    probe = inputs.probes[0]
    walls: dict[str, list[float]] = defaultdict(list)  # scaled by the reference kernel
    raw: dict[str, list[float]] = defaultdict(list)
    maxrss = inputs.maxrss_mb
    start = time.perf_counter()
    ref_before, _ = reference_scale(inputs.work)
    raw["reference"].append(ref_before)
    for i, inv in enumerate(itertools.cycle(inputs.passes)):
        if i >= len(inputs.passes):
            expected = sum(statistics.median(raw[k]) for k in (inv.label, *[probe.label] * STARTUP_PROBES, "reference"))
            if time.perf_counter() - start + expected > seconds:
                break
        step = []
        for one in (inv, *[probe] * STARTUP_PROBES):
            _drop_output(one)
            r = run_cli(one.argv, inputs.work)
            checker.check(one, r.returncode, r.stdout)
            step.append(r.wall)
            maxrss = max(maxrss, r.maxrss_mb)
        ref_after, speed = reference_scale(inputs.work)
        raw["reference"].append(ref_after)
        walls[inv.label].append(step[0] * REFERENCE_S / statistics.fmean((ref_before, ref_after)))
        raw[inv.label].append(step[0])
        walls[probe.label] += [wall * speed for wall in step[1:]]
        raw[probe.label] += step[1:]
        ref_before = ref_after
    # One pass at each command's mean scaled wall time.
    pass_rows = sum(inv.rows for inv in inputs.passes)
    pass_wall = sum(statistics.fmean(walls[inv.label]) for inv in inputs.passes)
    raw_wall = sum(statistics.fmean(raw[inv.label]) for inv in inputs.passes)
    metrics = {
        "rows_per_s": (pass_rows / pass_wall, "1/s"),
        "startup_s": (statistics.median(walls[probe.label]), "s"),
        "setup_s": (statistics.median(inputs.setup_s), "s"),
        "peak_rss_mb": (maxrss, "MB"),
    }
    n_timed = sum(len(v) for k, v in walls.items() if k != probe.label)
    lines = [
        "provenance " + json.dumps(provenance(name, seed, inputs)),
        f"scaled to a reference kernel of {REFERENCE_S} s; 'raw' lines are unscaled wall times",
        f"{'rows_per_s':<16} {pass_rows / pass_wall:.6g} 1/s from per-command means, n={n_timed} invocations"
        f" (raw {pass_rows / raw_wall:.6g} 1/s)",
        f"{'peak_rss_mb':<16} {maxrss:.6g} MB max over n={checker.attempted} children",
        _median_line("setup_s", inputs.setup_s, "s"),
        _median_line("raw setup_s", inputs.setup_raw_s, "s"),
        *(_median_line(f"{label}_s", v, "s") for label, v in walls.items()),
        *(_median_line(f"raw {label}_s", v, "s") for label, v in raw.items()),
        f"{'failed_frac':<16} {checker.failed / checker.attempted:.6g} of n={checker.attempted} invocations",
    ]
    return metrics, checker, lines


def _run_in_process(main, argv: tuple[str, ...]) -> tuple[int, float, bytes]:
    buffer = io.BytesIO()
    text = io.TextIOWrapper(buffer, encoding="utf-8", newline="\n")
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        rc = main(list(argv))
        wall = time.perf_counter() - start
        text.flush()
    return rc, wall, buffer.getvalue()


def _import_seconds(work: Path) -> list[float]:
    """A fresh interpreter importing calparity.cli, timed inside the child."""
    out = []
    for _ in range(IMPORT_REPEATS):
        r = run_child(["-c", IMPORT_PROBE], work)
        if r.returncode != 0:
            raise SetupError(f"importing calparity.cli exited {r.returncode}")
        out.append(float(r.stdout))
    return out


def layer_metrics(tracer: tracing.Tracer, meta: dict, untraced_wall: float, import_s: list[float]):
    """Per-layer metrics from the spans.

    Times and counts are per traced pass (the invocation list plus the
    4-row probes), as the median over passes; shares are each layer's self
    time over the traced wall time of all passes.
    """
    own = tracing.self_times(tracer.spans)
    per_pass: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    by_label: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    mismatched = 0
    inv_self: dict[int, float] = defaultdict(float)
    for s in tracer.spans:
        pass_no, label, stdout_bytes, output_bytes, bins_emitted = meta[s.invocation]
        p = per_pass[pass_no]
        p[f"self.{s.layer}"] += own[s.id]
        p[f"time.{s.name}"] += s.duration
        p[f"calls.{s.name}"] += 1
        p[f"calls.{s.layer}"] += 1
        p[f"site.{s.site}.{s.name}"] += 1
        for k, v in s.counts.items():
            p[f"count.{k}"] += v
        by_label[label][s.layer] += own[s.id]
        inv_self[s.invocation] += own[s.id]
        if s.parent is None:
            p["root"] += s.duration
            p["stdout_bytes"] += stdout_bytes
            p["output_bytes"] += output_bytes
            p["bins_emitted"] += bins_emitted
            by_label[label]["root"] += s.duration
    for s in tracer.spans:
        if s.parent is None and abs(inv_self[s.invocation] - s.duration) > 1e-9 * (1.0 + s.duration):
            mismatched += 1
    passes = list(per_pass.values())
    root_total = sum(p["root"] for p in passes)

    def med(key):
        return statistics.median(p[key] for p in passes)

    def share(layer):
        return (sum(p[f"self.{layer}"] for p in passes) / root_total, "frac")

    load_rows = sum(p["count.rows"] for p in passes)
    load_time = sum(p["time.dataset.load_csv"] for p in passes)
    metrics = {
        "dataset.load_csv_s": (med("time.dataset.load_csv"), "s"),
        "dataset.load_csv_rows_per_s": (load_rows / load_time, "1/s"),
        "dataset.write_csv_s": (med("time.dataset.write_csv"), "s"),
        "dataset.synth_s": (med("time.dataset.synth_calibrated") + med("time.dataset.synth_miscalibrated"), "s"),
        "dataset.bytes_read": (med("count.bytes_read"), "bytes"),
        "dataset.bytes_written": (med("count.bytes_written"), "bytes"),
        "dataset.share": share("dataset"),
        "metrics.calibration_gap_s": (med("time.metrics.calibration_gap"), "s"),
        "metrics.rate_point_s": (med("time.metrics.rate_point"), "s"),
        "metrics.rate_point_calls": (med("calls.metrics.rate_point"), "count"),
        "metrics.bins_built": (med("count.bins"), "count"),
        "metrics.bins_emitted_ratio": (med("bins_emitted") / med("count.bins"), "frac"),
        "metrics.atoms": (med("count.atoms"), "count"),
        "metrics.share": share("metrics"),
        "cost.self_s": (med("self.cost"), "s"),
        "cost.calls": (med("calls.cost"), "count"),
        "cost.share": share("cost"),
        "parity.realize_mixture_s": (med("time.parity.realize_mixture"), "s"),
        "parity.mixture_calibration_gap_s": (med("time.parity.mixture_calibration_gap"), "s"),
        "parity.self_s": (med("self.parity"), "s"),
        "parity.share": share("parity"),
        "eo.solve_eo_s": (med("time.eo.solve_eo"), "s"),
        "eo.calibration_damage_s": (med("time.eo.eo_calibration_damage"), "s"),
        "eo.flipped_scores_s": (med("time.eo.flipped_scores"), "s"),
        "eo.share": share("eo"),
        "impossibility.self_s": (med("self.impossibility"), "s"),
        "impossibility.share": share("impossibility"),
        "scene.build_scene_s": (med("time.scene.build_scene"), "s"),
        "scene.rate_point_calls": (med("site.scene.metrics.rate_point"), "count"),
        "scene.share": share("scene"),
        "cli.self_s": (med("self.cli"), "s"),
        "cli.stdout_bytes": (med("stdout_bytes"), "bytes"),
        "cli.output_bytes": (med("output_bytes") - med("count.bytes_written"), "bytes"),
        "cli.import_s": (statistics.median(import_s), "s"),
        "cli.share": share("cli"),
        "trace.overhead_frac": ((root_total - untraced_wall) / untraced_wall, "frac"),
    }
    lines = [f"traced passes n={len(passes)}; cli.import_s n={len(import_s)}"]
    for label, layers in by_label.items():
        shares = sorted(((v / layers["root"], k) for k, v in layers.items() if k != "root"), reverse=True)
        lines.append(f"shares {label:<14} " + " ".join(f"{k} {v:.3f}" for v, k in shares))
    return metrics, mismatched, lines


def measure_traced(name: str, seed: int, seconds: float, scale: int = 1) -> tuple[dict, Checker, list[str]]:
    """Per-layer run: one untraced in-process warm-up pass, then untraced/traced pairs.

    The warm-up pass grows the heap and pays for lazy imports, and its bytes
    are the reference every later pass must equal. At least one pair runs;
    another starts only if it should end within ``seconds`` of the start.
    """
    checker = Checker()
    inputs = set_up(name, seed, checker, scale)
    invs = inputs.passes + inputs.probes
    import_s = _import_seconds(inputs.work)
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("calparity.cli")
    start = time.perf_counter()
    for inv in invs:
        _drop_output(inv)
        rc, _, out = _run_in_process(cli.main, inv.argv)
        checker.check(inv, rc, out)
    tracer = tracing.Tracer()
    meta: dict[int, tuple] = {}
    untraced_wall = 0.0
    pass_no = 0

    def traced_main(argv):
        return tracer.call("cli.main", "bench", cli.main, argv)

    while True:
        pair_start = time.perf_counter()
        for traced in (False, True) if pass_no % 2 == 0 else (True, False):
            with tracing.patched(tracer) if traced else contextlib.nullcontext():
                for inv in invs:
                    _drop_output(inv)
                    if traced:
                        tracer.invocation += 1
                        rc, _, out = _run_in_process(traced_main, inv.argv)
                    else:
                        rc, wall, out = _run_in_process(cli.main, inv.argv)
                        untraced_wall += wall
                    bins = checker.check(inv, rc, out)
                    if traced:
                        written = os.path.getsize(inv.output) if inv.output else 0
                        meta[tracer.invocation] = (pass_no, inv.label, len(out), written, bins)
        pass_no += 1
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:  # the next pair would overrun
            break
    metrics, mismatched, lines = layer_metrics(tracer, meta, untraced_wall, import_s)
    if mismatched:
        checker.failed += mismatched
        checker.problems.append(f"{mismatched} invocations whose layer self times do not sum to their wall time")
    with open(inputs.work / "spans.jsonl", "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"id": s.id, "name": s.name, "site": s.site, "parent": s.parent,
                                 "invocation": s.invocation, "start": s.start, "end": s.end,
                                 "counts": s.counts}) + "\n")  # fmt: skip
    lines.insert(0, "provenance " + json.dumps(provenance(name, seed, inputs)))
    return metrics, checker, lines


def _cleanup(work: Path) -> None:
    """Drop the generated CSVs; keep spans and the result for inspection."""
    for path in work.glob("*.csv"):
        path.unlink()


def run(name: str, seed: int, seconds: float, traced: bool, scale: int = 1) -> dict:
    fn = measure_traced if traced else measure
    metrics, checker, lines = fn(name, seed, seconds, scale)
    for line in lines:
        print(line)
    for problem in checker.problems:
        print(f"FAILED {problem}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (WORK / name / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    _cleanup(WORK / name)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="tiny-size end-to-end run plus unit checks")
    args = parser.parse_args(argv)
    if not (SRC / "calparity" / "cli.py").is_file():
        print(f"error: calparity sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
