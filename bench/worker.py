"""Closed-loop job runner: one fresh process per workload, one client.

Usage: python3 bench/worker.py PLAN.json RESULT.json

run.py writes the plan (the job command lines and the passes to make) and
reads the result. Each job is one or more `pnormdist.cli.main(argv)` calls;
the next job starts only after the previous one ends. A job's stdout is kept
for the output checks, which run.py makes after this process has exited.

Passes, in plan order:
  plain   jobs with nothing installed: the end-to-end timings
  paired  jobs alternately plain and with tracing.Tracer installed, so the
          traced and untraced timings of neighbouring jobs are compared
  memory  jobs with tracing.PeakMeter (tracemalloc) installed, no span timed
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import tracing


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:  # no /proc: the report says "unknown"
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                found[os.path.basename(path)] = int(getattr(lib, symbol)())
                break
    return found


def run_job(cli, job: dict, index, tracer, fault: bool) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, error = 0, None
    if tracer is not None:
        tracer.job = index
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in job["argvs"]:
                if fault:
                    raise RuntimeError("injected fault (smoke check)")
                rc = cli.main(argv)
                if rc != 0:
                    break
    # A job boundary: an exception escaping the CLI fails the job, not the run.
    except Exception as exc:
        error = traceback.format_exception_only(exc)[-1].strip()
    except SystemExit as exc:  # argparse rejects a command line this way
        error = f"SystemExit({exc.code}): {err.getvalue().strip()[-200:]}"
    seconds = time.perf_counter() - start
    if error is None and rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()[-200:]}"
    return {"index": index, "p": job["p"], "seconds": seconds, "error": error,
            "stdout": out.getvalue()}


def run_pass(cli, plan: dict, spec: dict, first: int, tracer=None) -> dict:
    """Run jobs first, first+1, ... for spec['seconds'], and at least spec['min_jobs'].

    With a tracer, every second job (first+1, first+3, ...) runs traced.
    """
    jobs, records = plan["jobs"], []
    index = first
    start = time.perf_counter()
    while index < len(jobs) and (
        len(records) < spec["min_jobs"] or time.perf_counter() - start < spec["seconds"]
    ):
        traced = tracer if (index - first) % 2 else None
        if traced is not None:
            traced.install()
        try:
            records.append(run_job(cli, jobs[index], index, traced, index == plan["fault_job"]))
        finally:
            if traced is not None:
                traced.uninstall()
        index += 1
    return {"mode": spec["mode"], "wall_s": time.perf_counter() - start, "jobs": records}


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    from pnormdist import cli

    import numpy
    import scipy

    result = {
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "passes": [],
    }
    run_job(cli, plan["warmup"], "warmup", None, False)  # lazy imports, first-touch pages
    first = 0
    for spec in plan["passes"]:
        if spec["mode"] == "plain":
            done = run_pass(cli, plan, spec, first)
            result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elif spec["mode"] == "paired":
            tracer = tracing.Tracer()
            done = run_pass(cli, plan, spec, first, tracer)
            result["spans"] = tracer.spans
            result["counts"] = [[job, dict(c)] for job, c in tracer.counts.items()]
        else:
            meter = tracing.PeakMeter()
            meter.install()
            try:
                done = run_pass(cli, plan, spec, first)
            finally:
                meter.uninstall()
            result["peaks"] = meter.peaks
        result["passes"].append(done)
        first += len(done["jobs"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
