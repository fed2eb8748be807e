"""Spans and counts recorded around calls into pnormdist, from outside the package.

`Tracer.install` replaces each instrumented public function with a wrapper in
every pnormdist module that holds it, so calls made through `from x import f`
names are traced too; `uninstall` puts the originals back. Nothing under
src/ is edited. Spans are kept in memory as tuples
(name, start, end, parent, job) and written out once, at the end of the run.

`PeakMeter` is the memory pass: tracemalloc peaks per function, taken in a
pass where no span is timed.

`layer_metrics` turns the written spans and counts into the per-layer
metrics. A `.s` metric is the time inside a layer's outermost spans; a
`.self_s` metric subtracts the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np

# (span name, module, attribute). Several attributes may share a span name.
SPANS = (
    ("cli.main", "cli", "main"),
    ("geometry.read_points_csv", "geometry", "read_points_csv"),
    ("geometry.build_distance_matrix", "geometry", "build_distance_matrix"),
    ("geometry.write_csv", "geometry", "write_points_csv"),
    ("geometry.write_csv", "geometry", "write_matrix_csv"),
    ("profiles.apply_to_power_sums", "profiles", "RadialProfile.apply_to_power_sums"),
    ("andmatrix.check_and", "andmatrix", "check_and"),
    ("andmatrix.restrict_to_zero_sum", "andmatrix", "restrict_to_zero_sum"),
    ("andmatrix.det_sign_logmag", "andmatrix", "det_sign_logmag"),
    ("interpolation.fit", "interpolation", "fit"),
    ("interpolation.evaluate_many", "interpolation", "Interpolant.evaluate_many"),
    ("singular.psi", "singular", "psi"),
    ("singular.root_finding", "singular", "find_pn"),
    ("singular.root_finding", "singular", "find_pmn"),
    ("singular.root_finding", "singular", "find_theta"),
    ("singular.cube_config", "singular", "cube_config"),
    ("singular.certify_singular", "singular", "certify_singular"),
    ("serialize.dumps", "serialize", "dumps"),
)

PEAKS = (
    ("geometry.build_distance_matrix", "geometry", "build_distance_matrix"),
    ("interpolation.fit", "interpolation", "fit"),
)

# name -> unit, in the order they are reported. Every one is printed for
# every workload; a layer a workload does not reach reads 0.
PER_LAYER = {
    "cli.main.self_s": "s",
    "geometry.read_points_csv.s": "s",
    "geometry.build_distance_matrix.s": "s",
    "geometry.build_distance_matrix.peak_mb": "MiB",
    "geometry.pairs": "count",
    "geometry.write_csv.s": "s",
    "profiles.apply_to_power_sums.s": "s",
    "profiles.apply_to_power_sums.calls": "count",
    "andmatrix.det_sign_logmag.s": "s",
    "andmatrix.check_and.self_s": "s",
    "andmatrix.restrict_to_zero_sum.s": "s",
    "interpolation.fit.self_s": "s",
    "interpolation.fit.peak_mb": "MiB",
    "interpolation.evaluate_many.self_s": "s",
    "interpolation.evaluate_interpolant.calls": "count",
    "interpolation.useful_eval_frac": "ratio",
    "singular.psi.s": "s",
    "singular.psi.calls": "count",
    "singular.root_iterations": "count",
    "singular.root_finding.s": "s",
    "singular.cube_config.s": "s",
    "singular.certify_singular.self_s": "s",
    "serialize.dumps.s": "s",
    "trace.overhead_frac": "ratio",
}

# Counts that must repeat exactly between two runs with the same seed.
EXACT_COUNTS = (
    "geometry.pairs",
    "profiles.apply_to_power_sums.calls",
    "interpolation.evaluate_interpolant.calls",
    "singular.psi.calls",
    "singular.root_iterations",
)


def _resolve(module: str, attr: str):
    owner = sys.modules[f"pnormdist.{module}"]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class _Patches:
    """Replaces functions by wrappers wherever pnormdist holds them, and undoes it."""

    def __init__(self):
        self._undo = []

    def replace(self, module: str, attr: str, make_wrapper) -> None:
        owner, name = _resolve(module, attr)
        original = getattr(owner, name)
        wrapper = functools.wraps(original)(make_wrapper(original))
        if isinstance(owner, type):
            holders = [(owner, name)]
        else:
            holders = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name.startswith("pnormdist")
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for holder, key in holders:
            self._undo.append((holder, key, original))
            setattr(holder, key, wrapper)

    def undo(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()


class Tracer:
    """Span recorder, installed while a traced job runs."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, job)
        self.counts = {}  # job -> Counter
        self.job = None
        self._stack = []
        self._patches = _Patches()

    def _counter(self) -> Counter:
        return self.counts.setdefault(self.job, Counter())

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapped(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)

        return wrapped

    def _after_build(self, fn):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._counter()["geometry.pairs"] += result.n * (result.n - 1) // 2
            return result

        return wrapped

    def _after_evaluate_many(self, fn):
        def wrapped(interp, queries):
            result = fn(interp, queries)
            rows = np.asarray(queries, dtype=float)
            counter = self._counter()
            counter["interpolation.points_evaluated"] += rows.shape[0]
            if not np.array_equal(rows, interp.centers.points):
                counter["interpolation.query_points_evaluated"] += rows.shape[0]
            return result

        return wrapped

    def _count_calls(self, fn):
        def wrapped(*args, **kwargs):
            self._counter()["interpolation.evaluate_interpolant.calls"] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _count_iterations(self, fn):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._counter()["singular.root_iterations"] += result.iterations
            return result

        return wrapped

    def install(self) -> None:
        patch = self._patches.replace
        # Counted, not timed: evaluate_interpolant runs 40 400 times per interp
        # job, and _bisect is where every RootResult.iterations is made.
        patch("interpolation", "evaluate_interpolant", self._count_calls)
        patch("singular", "_bisect", self._count_iterations)
        patch("geometry", "build_distance_matrix", self._after_build)
        patch("interpolation", "Interpolant.evaluate_many", self._after_evaluate_many)
        for name, module, attr in SPANS:
            patch(module, attr, functools.partial(self._span, name))

    def uninstall(self) -> None:
        self._patches.undo()


class PeakMeter:
    """tracemalloc peak of each PEAKS function, nested calls included."""

    def __init__(self):
        self.peaks = {}  # name -> bytes above the allocation level at entry
        self._active = []  # [name, level at entry, running peak]
        self._patches = _Patches()

    def _fold(self) -> None:
        # Credit the peak since the last reset to every open call, then reset
        # so that an inner call's reading does not erase an outer one's.
        peak = tracemalloc.get_traced_memory()[1]
        for rec in self._active:
            rec[2] = max(rec[2], peak)
        tracemalloc.reset_peak()

    def _wrap(self, name, fn):
        def wrapped(*args, **kwargs):
            self._fold()
            rec = [name, tracemalloc.get_traced_memory()[0], 0]
            self._active.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                self._fold()
                self._active.pop()
                self.peaks[name] = max(self.peaks.get(name, 0), rec[2] - rec[1])

        return wrapped

    def install(self) -> None:
        tracemalloc.start()
        for name, module, attr in PEAKS:
            self._patches.replace(module, attr, functools.partial(self._wrap, name))

    def uninstall(self) -> None:
        self._patches.undo()
        tracemalloc.stop()


def _per_job_times(spans, jobs):
    """job -> {metric: seconds} for the `.s` and `.self_s` metrics."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {job: Counter() for job in jobs}
    for i, (name, start, end, parent, job) in enumerate(spans):
        if job not in out:
            continue
        out[job][f"{name}.self_s"] += end - start - child_time[i]
        out[job][f"{name}.calls"] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:  # outermost span of this name
            out[job][f"{name}.s"] += end - start
    return out


def layer_metrics(spans, counts, peaks, count_jobs, timed_jobs, overhead_frac):
    """Per-layer metrics as {name: value}.

    Times are medians over `timed_jobs` of each job's total. Counts are
    totals over `count_jobs` (one full exponent cycle), so they repeat
    exactly for a seed. Peaks are MiB above the level at entry.
    """
    per_job = _per_job_times(spans, set(timed_jobs) | set(count_jobs))
    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".s") or name.endswith(".self_s"):
            metrics[name] = float(statistics.median(per_job[j][name] for j in timed_jobs))
        elif name.endswith(".peak_mb"):
            metrics[name] = peaks.get(name[: -len(".peak_mb")], 0) / 2**20
    total = Counter()
    for j in count_jobs:
        total.update(counts.get(j, {}))
        total.update({k: v for k, v in per_job[j].items() if k.endswith(".calls")})
    for name in EXACT_COUNTS:
        metrics[name] = total[name]
    evaluated = total["interpolation.points_evaluated"]
    metrics["interpolation.useful_eval_frac"] = (
        total["interpolation.query_points_evaluated"] / evaluated if evaluated else 0.0
    )
    metrics["trace.overhead_frac"] = overhead_frac
    return {name: metrics[name] for name in PER_LAYER}
