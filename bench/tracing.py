"""In-process span tracing of the calparity CLI, from outside the package.

Every public function a calparity module defines is wrapped in each module
namespace that holds a reference to it: the defining module, ``cli``'s
``from ... import`` names and cross-module imports such as
``scene.rate_point``. A span records its name, the namespace the call was
looked up in (the call site), start, end, parent span and invocation id.
Nothing under ``src/`` is edited; ``patched`` restores every name on exit.

A layer is a module. Its self time is the duration of its spans minus the
part covered by their child spans; the root span of an invocation is
``cli.main``, so ``cli`` self time is argparse, JSON rounding and encoding
and the row writers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from dataclasses import dataclass, field

LAYERS = ("dataset", "metrics", "cost", "parity", "eo", "impossibility", "scene", "cli")
PACKAGE = "calparity"


@dataclass
class Span:
    id: int
    name: str  # "<defining module>.<function>", e.g. "metrics.rate_point"
    site: str  # module namespace the call was looked up in
    parent: int | None
    invocation: int
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _load_csv_counts(args, kwargs, groups):
    return {"rows": sum(len(g) for g in groups), "bytes_read": os.path.getsize(args[0])}


def _write_csv_counts(args, kwargs, _):
    return {"bytes_written": os.path.getsize(args[1])}


def _calibration_gap_counts(args, kwargs, report):
    binning = args[1] if len(args) > 1 else kwargs.get("binning", "exact-unique")
    bins = len(report.per_bin)
    return {"bins": bins, "atoms": bins if binning == "exact-unique" else 0}


# Counters taken from a span's arguments and result, where the work happens.
COUNTERS = {
    "dataset.load_csv": _load_csv_counts,
    "dataset.write_csv": _write_csv_counts,
    "metrics.calibration_gap": _calibration_gap_counts,
}


class Tracer:
    """Keeps spans in memory; ``invocation`` groups the spans of one CLI call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.invocation = 0

    def call(self, name: str, site: str, fn, *args, **kwargs):
        span = Span(
            len(self.spans),
            name,
            site,
            self._stack[-1] if self._stack else None,
            self.invocation,
            time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result

    def wrap(self, name: str, site: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, site, fn, *args, **kwargs)

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _public_functions(module) -> dict[int, str]:
    """id(function) -> span name for the public functions ``module`` defines."""
    short = module.__name__.rsplit(".", 1)[1]
    return {
        id(obj): f"{short}.{name}"
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Wrap every public calparity function at every namespace that names it."""
    modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
    names: dict[int, str] = {}
    for module in modules[:-1]:  # cli's own functions belong to its root span
        names.update(_public_functions(module))
    saved = []
    for module in modules:
        site = module.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(module).items()):
            if id(obj) in names:
                saved.append((module, attr, obj))
                setattr(module, attr, tracer.wrap(names[id(obj)], site, obj))
    try:
        yield
    finally:
        for module, attr, obj in saved:
            setattr(module, attr, obj)
