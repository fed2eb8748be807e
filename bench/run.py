"""pnormdist benchmark: CLI jobs in a fresh worker process, checked outside the timed region.

Run from the repository root:

  python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0
  python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0
  python3 bench/run.py --smoke

--trace 0 times jobs with nothing installed and reports the end-to-end
metrics; --trace 1 reports the per-layer metrics from traced jobs that
alternate with untraced ones (see tracing.py). `--workload all` runs every workload, each in its own
worker. `--smoke` checks the harness itself at tiny sizes. Each result is
preceded by a report with every metric, its unit and sample count, and the
environment; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

Workloads (workloads.py) run one client in a closed loop: the next job
starts only when the previous one has ended. BLAS is limited to nproc
threads. A job fails on a non-zero exit code, an escaped exception or a
failed output check; failures are counted, never skipped.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".bench_work"
TAIL_BEYOND = 10  # the tail percentile has at least this many samples beyond it
SETUP_RUNS = 5
MAX_JOBS = 1000
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "job_s.p50": "s",
    "job_s.tail": "s",
    "jobs_per_s": "1/s",
    "failed_frac": "ratio",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
# failed_frac is 0 on every workload BENCHMARK.json lists, so it cannot be
# bounded there as a share of its median; it is printed in the report and carried
# by the result's `attempted` and `failed`.
RESULT_END_TO_END = ("job_s.p50", "job_s.tail", "jobs_per_s", "peak_rss_mb", "setup_s")

FIT_NOTE = (
    "note: fit fails by design at this commit. Above 500 centres "
    "interpolation._condition_estimate calls scipy's onenormest on an operator "
    "without an adjoint and raises TypeError (a planned LDL^T factorization removes that path). "
    "Its null timings are expected, not a harness fault; judge it on failed_frac "
    "and jobs_per_s."
)


def child_env() -> dict:
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def measure_setup() -> list:
    """Wall seconds for fresh interpreters to import pnormdist.cli and exit."""
    cmd = [sys.executable, "-c", "import pnormdist.cli"]
    env = child_env()
    subprocess.run(cmd, env=env, check=True, timeout=60)  # writes bytecode once
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return samples


def passes_for(trace: int, seconds: float, cycle: int) -> list:
    if not trace:
        return [{"mode": "plain", "seconds": seconds, "min_jobs": TAIL_BEYOND + 1}]
    return [
        {"mode": "paired", "seconds": seconds, "min_jobs": 2 * cycle},
        {"mode": "memory", "seconds": 0, "min_jobs": 1},
    ]


def run_worker(wl, work: str, trace: int, seconds: float, fault_job) -> tuple:
    """Run the workload's jobs in a fresh worker; return (worker result, outputs by job)."""
    jobs, outputs = [], []
    repeat = 2 if trace else 1  # a paired pass runs each exponent plain, then traced
    for index in range(MAX_JOBS):
        p = wl.p_of(index // repeat)
        argvs, out = wl.make_job(index, p)
        jobs.append({"p": p, "argvs": argvs})
        outputs.append(out)
    argvs, _ = wl.make_job("warmup", wl.p_of(0))
    plan = {
        "jobs": jobs,
        "warmup": {"p": wl.p_of(0), "argvs": argvs},
        "passes": passes_for(trace, seconds, len(wl.cycle)),
        "fault_job": fault_job,
    }
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path]
    proc = subprocess.run(cmd, env=child_env(), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise RuntimeError(f"worker exited with code {proc.returncode} and no result")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), outputs


def check_jobs(wl, passes: list, outputs: list) -> None:
    """Set each job's `failure` to None or the reason it failed."""
    for pas in passes:
        for job in pas["jobs"]:
            reason = job["error"]
            if reason is None:
                try:
                    reason = wl.check(job, outputs[job["index"]], job["p"])
                except Exception as exc:  # an unreadable output is a failed check
                    reason = f"output check raised {type(exc).__name__}: {exc}"
            job["failure"] = reason


def tail(times: list):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None, None
    rank = n - TAIL_BEYOND  # nearest-rank: this many samples at or below the value
    return sorted(times)[rank - 1], math.floor(100 * rank / n)


def completed_times(jobs: list) -> list:
    return [j["seconds"] for j in jobs if j["failure"] is None]


def end_to_end(plain: dict, maxrss_mb: float, setup: list) -> tuple:
    times = completed_times(plain["jobs"])
    attempted = len(plain["jobs"])
    value, pct = tail(times)
    metrics = {
        "job_s.p50": statistics.median(times) if times else None,
        "job_s.tail": value,
        "jobs_per_s": len(times) / plain["wall_s"],
        "failed_frac": (attempted - len(times)) / attempted,
        "peak_rss_mb": maxrss_mb,
        "setup_s": statistics.median(setup),
    }
    notes = {
        "job_s.p50": f"median of {len(times)} completed jobs",
        "job_s.tail": f"p{pct}, {TAIL_BEYOND} of {len(times)} samples beyond it"
        if pct is not None
        else f"none: {len(times)} completed jobs, need more than {TAIL_BEYOND}",
        "jobs_per_s": f"{len(times)} completed in {plain['wall_s']:.2f} s of timed wall time",
        "failed_frac": f"{attempted - len(times)} of {attempted} attempted",
        "peak_rss_mb": "worker ru_maxrss",
        "setup_s": f"median of {len(setup)} fresh imports of pnormdist.cli",
    }
    return metrics, notes


def per_layer(result: dict, cycle: int) -> tuple:
    paired = result["passes"][0]["jobs"]
    traced = [j["index"] for j in paired[1::2]]
    plain_t, traced_t = completed_times(paired[0::2]), completed_times(paired[1::2])
    overhead = (
        statistics.median(traced_t) / statistics.median(plain_t) - 1.0
        if plain_t and traced_t
        else None
    )
    counts = {job: c for job, c in result["counts"]}
    metrics = tracing.layer_metrics(
        result["spans"], counts, result.get("peaks", {}), traced[:cycle], traced, overhead
    )
    notes = {}
    for name in metrics:
        if name.endswith(".s") or name.endswith(".self_s"):
            notes[name] = f"median per traced job, {len(traced)} jobs"
        elif name.endswith(".peak_mb"):
            notes[name] = "tracemalloc, memory pass"
        else:
            notes[name] = f"over the first {min(cycle, len(traced))} traced jobs"
    notes["trace.overhead_frac"] = (
        f"traced p50 over untraced p50 - 1 ({len(traced_t)} and {len(plain_t)} jobs)"
    )
    return metrics, notes


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or tracing.PER_LAYER[name]


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 size_set: str = "full", fault_job=None) -> dict:
    work = os.path.join(WORK_ROOT, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        setup = [] if trace else measure_setup()
        wl = workloads.make_workload(name, seed, work, size_set)
        result, outputs = run_worker(wl, work, trace, seconds, fault_job)
        check_jobs(wl, result["passes"], outputs)  # outside the timed region
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        metrics, notes = per_layer(result, len(wl.cycle))
    else:
        metrics, notes = end_to_end(result["passes"][0], result["maxrss_mb"], setup)
    jobs = [j for pas in result["passes"] for j in pas["jobs"]]
    failures = [j for j in jobs if j["failure"] is not None]
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "env": result["env"],
        "metrics": metrics,
        "notes": notes,
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": sorted({j["failure"] for j in failures}),
    }


def print_report(run: dict) -> None:
    env = run["env"]
    blas = ", ".join(f"{lib}={n}" for lib, n in env["blas_threads"].items()) or "unknown"
    print(f"== workload {run['workload']} (seed {run['seed']}, trace {run['trace']}): "
          f"{workloads.WHY[run['workload']]}")
    print(f"env: nproc={env['nproc']} blas_threads[{blas}] python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} seed={run['seed']}")
    print("load: closed loop, 1 client, fresh worker process")
    for name, value in run["metrics"].items():
        shown = "null" if value is None else repr(value)
        print(f"  {name:<44} {shown:>22} {unit_of(name):<6} {run['notes'][name]}")
    print(f"  attempted {run['attempted']}, failed {run['failed']}")
    for reason in run["failures"][:5]:
        print(f"  failure: {reason}")
    if run["workload"] == "fit":
        print(FIT_NOTE)


def result(run: dict, names) -> dict:
    """The result object the last line of stdout carries, with metrics `names`."""
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {n: {"value": run["metrics"][n], "unit": unit_of(n)} for n in names},
    }


def smoke() -> int:
    """Tiny runs of every workload: metrics complete, counts repeat, faults counted."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    named = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    first_counts = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1, 1):
            run = run_workload(name, 0, 1, trace, "smoke")
            printed = result(run, tracing.PER_LAYER if trace else RESULT_END_TO_END)["metrics"]
            for metric in named[trace]:
                got = printed.get(metric["name"], {})
                if not isinstance(got.get("value"), (int, float)) or got["unit"] != metric["unit"]:
                    problems.append(f"{name}: {metric['name']} missing, null or not in "
                                    f"{metric['unit']}")
            if not all(isinstance(v, (int, float)) for v in run["metrics"].values()):
                problems.append(f"{name} trace {trace}: a reported metric is null")
            if run["failed"]:
                problems.append(f"{name} trace {trace}: {run['failures']}")
            if trace:
                counts = {c: run["metrics"][c] for c in tracing.EXACT_COUNTS}
                if name in first_counts and counts != first_counts[name]:
                    problems.append(f"{name}: counts differ between two runs with one seed: "
                                    f"{first_counts[name]} vs {counts}")
                first_counts.setdefault(name, counts)
            print(f"smoke {name} trace {trace}: attempted {run['attempted']}, "
                  f"failed {run['failed']}")
    run = run_workload("certify", 0, 1, 0, "smoke", fault_job=1)
    if not (run["failed"] == 1 and run["attempted"] >= 2
            and any("injected fault" in f for f in run["failures"])):
        problems.append(f"an escaped exception was not counted as one failed job: {run}")
    print(f"smoke fault injection: attempted {run['attempted']}, failed {run['failed']}")
    for problem in problems:
        print(f"smoke FAILED: {problem}")
    print(json.dumps({"smoke": "failed" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check the harness at tiny sizes")
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so subprocess.run kills the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join("src", "pnormdist", "cli.py")):
        print("error: run from the repository root (src/pnormdist not found)", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        run = run_workload(name, args.seed, args.seconds, args.trace)
        print_report(run)
        runs.append(run)
    if args.workload == "all":
        print(json.dumps({r["workload"]: result(r, r["metrics"]) for r in runs}))
    else:
        print(json.dumps(result(runs[0], tracing.PER_LAYER if args.trace else RESULT_END_TO_END)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
