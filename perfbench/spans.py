"""Span tracer that wraps sparsefft's public functions from outside.

`Tracer` resolves each traced function once, then, while `recording` is
active, replaces every module-level reference to it inside the `sparsefft`
package (so `fft_axes`, imported by name into `hashing_measurements`, is
wrapped there too) and restores the originals on exit. A function that no
longer exists is listed in `absent` instead of raising.

Each call becomes one `Span`: qualified name, start, end, index of the
enclosing span, instance id, and the counts that `COUNTERS` reads off its
arguments and result. Spans stay in memory; `summarize` turns them into
calls, total and self time, and summed counts per function and per module.
"""
from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Span", "Tracer", "TRACED_MODULES", "ledger_problems", "summarize"]

PACKAGE = "sparsefft"

# Modules whose public (`__all__`) functions are wrapped, in pipeline order.
TRACED_MODULES = (
    "dense_dft",
    "filters",
    "permutation",
    "semi_equispaced",
    "hashing_measurements",
    "location",
    "estimation",
    "recovery",
    "harness",
)
# Private functions wrapped as well, because a per-layer metric needs them.
EXTRA_FUNCTIONS = ("semi_equispaced._dense_box",)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Counts read off a call: fn(args, kwargs, result) -> {count name: number}.
COUNTERS = {
    "dense_dft.fft_axes": lambda a, kw, r: {"points": int(np.size(r))},
    "dense_dft.fft_grid": lambda a, kw, r: {"points": int(np.size(r))},
    "location.locate_signal": lambda a, kw, r: {
        "buckets": len(r.failed),
        "found": len(r.found),
        "failed": int(np.count_nonzero(r.failed)),
    },
    "semi_equispaced.shifted_semi_equispaced": lambda a, kw, r: {
        "box_points": int(np.size(r))
    },
    "estimation.estimate_values": lambda a, kw, r: {
        "locations": len(r.estimates),
        "kept": len(r.kept),
        "samples": int(r.samples),
    },
    "hashing_measurements.acquire_measurements": lambda a, kw, r: {
        "samples": int(r.sample_counter),
        "table_bytes": int(r.buckets.nbytes),
    },
    "hashing_measurements.update_residual_measurements": lambda a, kw, r: {
        "entries": len(_arg(a, kw, 1, "chi_delta"))
    },
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    instance: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the traced functions while `recording` is active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.count_errors: list[str] = []
        self._stack: list[int] = []
        self._instance = ""
        self._targets: dict[str, object] = {}
        for mod_name in TRACED_MODULES:
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(f"{mod_name}.*")
                continue
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr, None)
                if obj is None:
                    self.absent.append(f"{mod_name}.{attr}")
                elif callable(obj) and not isinstance(obj, type):
                    self._targets[f"{mod_name}.{attr}"] = obj
        for qual in EXTRA_FUNCTIONS:
            mod_name, attr = qual.split(".")
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            obj = getattr(module, attr, None)
            if obj is None:
                self.absent.append(qual)
            else:
                self._targets[qual] = obj

    @property
    def names(self) -> list[str]:
        return list(self._targets)

    @contextmanager
    def recording(self, instance: str):
        """Wrap every traced function, tagging spans with `instance`."""
        patches = []
        wrappers = {id(fn): self._wrap(qual, fn) for qual, fn in self._targets.items()}
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        self._instance = instance
        try:
            yield self
        finally:
            for module, attr, value in reversed(patches):
                setattr(module, attr, value)
            self._instance = ""

    def _wrap(self, qual: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(qual)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(qual, 0.0, 0.0, stack[-1] if stack else -1, self._instance)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                try:
                    span.counts = counter(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError) as exc:
                    self.count_errors.append(f"{qual}: {exc!r}")
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qual)
        return traced


def summarize(spans: list[Span], instances: set[str]) -> dict:
    """Per-function and per-module aggregates over spans of `instances`.

    Returns {"functions": {qual: {"calls", "total_s", "self_s", <counts>}},
    "modules": {module: self_s}, "fallback_shifted": n}, where self time is a
    span's duration minus the durations of its direct children, and
    fallback_shifted counts shifted_semi_equispaced spans that reached
    `_dense_box` below them.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    functions: dict[str, dict] = {}
    modules: dict[str, float] = {}
    fallback_shifted = set()
    for i, span in enumerate(spans):
        if span.instance not in instances:
            continue
        agg = functions.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        own = span.duration - child[i]
        agg["calls"] += 1
        agg["total_s"] += span.duration
        agg["self_s"] += own
        for key, val in span.counts.items():
            agg[key] = agg.get(key, 0) + val
        module = span.name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + own
        if span.name == "semi_equispaced._dense_box":
            up = span.parent
            while up >= 0 and spans[up].name != "semi_equispaced.shifted_semi_equispaced":
                up = spans[up].parent
            if up >= 0:
                fallback_shifted.add(up)
    return {
        "functions": functions,
        "modules": modules,
        "fallback_shifted": len(fallback_shifted),
    }


SAMPLED_BY = ("hashing_measurements.acquire_measurements", "estimation.estimate_values")


def ledger_problems(
    spans: list[Span], total_samples: int, reads: int, distinct: int, N: int
) -> list[str]:
    """Check one run's sample ledger against its spans and recorded reads.

    `RunStats.total_samples` must equal the samples every acquisition and
    estimation batch reported, and the values actually read from the
    spectrum; the distinct positions read cannot exceed
    min(N, total_samples). Returns the violations found.
    """
    counted = sum(s.counts.get("samples", 0) for s in spans if s.name in SAMPLED_BY)
    problems = []
    if counted != total_samples:
        problems.append(
            f"sample ledger mismatch: RunStats.total_samples={total_samples}, "
            f"acquisitions + estimation batches = {counted}"
        )
    if reads != total_samples:
        problems.append(
            f"sample ledger mismatch: RunStats.total_samples={total_samples}, "
            f"values read from the spectrum = {reads}"
        )
    if distinct > min(N, total_samples):
        problems.append(
            f"{distinct} distinct reads exceed min(N, samples) = {min(N, total_samples)}"
        )
    return problems
