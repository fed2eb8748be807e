"""Workload definitions: generated inputs, job command lines, references, output checks.

This module never imports pnormdist. Inputs are made from the seed with
numpy, references are computed with numpy/scipy directly, and outputs are
read back from the files and stdout the CLI produced, so a defect in the
program cannot also hide in its own check.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

# Exponent cycles. A job's P is CYCLE[(seed + job) % len(CYCLE)], so the seed
# also rotates where a run enters the cycle.
P_AND = (1.25, 1.5, 1.75, 2.0)
P_SINGULAR = (2.25, 3.0, 4.0, 6.0)  # all above p_9 ~ 2.048

FIT_RESIDUAL_MAX = 1e-8
# Query values may differ from the reference (LU solve of scipy's cdist
# matrix) by rounding amplified by the condition number (~2e4..3e4 at 400
# centres): observed up to 2e-13 of the data scale, so 1e-9 leaves room for
# another solver and for the worse-conditioned 1500-centre fit.
INTERP_RTOL = 1e-9
INTERP_SAMPLE = 64
P2_REFERENCE = 2.80097422586
P2_TOL = 1e-10
RATE_MAX = 4.0

WORKLOADS = ("certify", "interp", "fit", "singular")

# One line each; the listed workloads repeat the `why` of BENCHMARK.json.
WHY = {
    "certify": (
        "check-and on 1000 points at p in (1,2]: the AND and determinant-sign "
        "certificate, dominated by the pure-Python elimination in andmatrix"
    ),
    "interp": (
        "interp with 400 centres and 40 000 queries: per-point evaluation and the "
        "profile map dominate, the fit is small and andmatrix is idle"
    ),
    "fit": (
        "interp with 1500 centres and 200 queries: factorization and condition "
        "estimate above the 500-point switch; every job fails at this commit "
        "(onenormest TypeError)"
    ),
    "singular": (
        "find-pn, scan-psi and two singular-config runs at p > 2: psi evaluation, "
        "bisection, cube validation, full-matrix SVD and the memory peak"
    ),
}

# Full sizes are the benchmark; smoke sizes only exercise the harness.
SIZES = {
    "full": {
        "certify": {"n": 1000, "d": 3},
        "interp": {"n": 400, "d": 3, "queries": 40_000},
        "fit": {"n": 1500, "d": 3, "queries": 200},
        "singular": {
            "n_max": 50,
            "scan_n": "2,3,5,10,20,50",
            "grid": "2:6:0.001",
            "side": 9,
            "m": 7,
        },
    },
    "smoke": {
        "certify": {"n": 40, "d": 3},
        "interp": {"n": 30, "d": 3, "queries": 200},
        "fit": {"n": 40, "d": 3, "queries": 20},
        "singular": {"n_max": 8, "scan_n": "2,3", "grid": "2:3:0.01", "side": 5, "m": 4},
    },
}


@dataclass
class Workload:
    """Everything the harness needs to run and check one workload."""

    name: str
    cycle: tuple
    rotate: int
    make_job: object  # (job index, P) -> (list of argv lists, dict of output paths)
    check: object  # (job record, outputs, P) -> error string or None

    def p_of(self, job: int) -> float:
        return self.cycle[(self.rotate + job) % len(self.cycle)]


def _write_csv(path: str, rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(format(float(v), ".17g") for v in row))
            fh.write("\n")


def _last_json(stdout: str):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("no output on stdout")
    return json.loads(lines[-1])


def _certify(work: str, rng: np.random.Generator, size: dict, rotate: int) -> Workload:
    n, d = size["n"], size["d"]
    points = os.path.join(work, "points.csv")
    _write_csv(points, rng.random((n, d)))
    expected_sign = 1 if (n - 1) % 2 == 0 else -1

    def make_job(job, p):
        return [["check-and", points, "--p", repr(p)]], {}

    def check(record, outputs, p):
        rep = _last_json(record["stdout"])
        if rep["verdict"] != "strictly-AND":
            return f"verdict {rep['verdict']!r}, expected 'strictly-AND'"
        if rep["det_sign"] != expected_sign:
            return f"det_sign {rep['det_sign']}, expected (-1)^(n-1) = {expected_sign}"
        eig = rep["eigenvalues"]
        if len(eig) != n - 1:
            return f"{len(eig)} restricted eigenvalues, expected n-1 = {n - 1}"
        if not all(isinstance(v, (int, float)) and v < 0.0 for v in eig):
            return "a restricted eigenvalue is not negative"
        return None

    return Workload("certify", P_AND, rotate, make_job, check)


def _interp(name: str, work: str, rng: np.random.Generator, size: dict, rotate: int) -> Workload:
    n, d, nq = size["n"], size["d"], size["queries"]
    centres = rng.random((n, d))
    w = rng.standard_normal(d)
    values = np.sin(2.0 * math.pi * centres @ w) + 0.1 * (centres * centres).sum(axis=1)
    queries = rng.random((nq, d))
    sample = np.sort(rng.choice(nq, size=min(INTERP_SAMPLE, nq), replace=False))
    data_path = os.path.join(work, "data.csv")
    query_path = os.path.join(work, "queries.csv")
    _write_csv(data_path, np.column_stack([centres, values]))
    _write_csv(query_path, queries)
    scale = float(np.abs(values).max())

    # Reference values at the sampled queries, one solve per exponent in the cycle.
    reference = {}
    for p in set(P_AND):
        coeffs = np.linalg.solve(cdist(centres, centres, "minkowski", p=p), values)
        reference[p] = cdist(queries[sample], centres, "minkowski", p=p) @ coeffs

    def make_job(job, p):
        out = os.path.join(work, f"out-{job}.csv")
        argv = ["interp", data_path, "--p", repr(p), "--query-file", query_path, "--out", out]
        return [argv], {"values": out}

    def check(record, outputs, p):
        rep = _last_json(record["stdout"])
        if not rep["fit_residual"] <= FIT_RESIDUAL_MAX:
            return f"fit_residual {rep['fit_residual']} > {FIT_RESIDUAL_MAX}"
        with open(outputs["values"], encoding="utf-8") as fh:
            got = np.array([float(ln) for ln in fh if ln.strip()])
        if got.shape != (nq,):
            return f"{got.shape[0]} output values, expected {nq}"
        err = float(np.abs(got[sample] - reference[p]).max())
        if not err <= INTERP_RTOL * scale:
            return f"query values {err:.3e} off the reference, over {INTERP_RTOL:g} * {scale:.3g}"
        return None

    return Workload(name, P_AND, rotate, make_job, check)


def _read_table(path: str) -> list[list[float]]:
    with open(path, encoding="utf-8") as fh:
        next(fh)  # header
        return [[float(v) for v in ln.split(",")] for ln in fh if ln.strip()]


def _singular(work: str, size: dict, rotate: int) -> Workload:
    side, m = size["side"], size["m"]
    grid_lo, grid_hi, grid_step = (float(v) for v in size["grid"].split(":"))
    grid_rows = int(math.floor((grid_hi - grid_lo) / grid_step + 1e-9)) + 1

    def make_job(job, p):
        out = {
            "pn": os.path.join(work, f"pn-{job}.csv"),
            "scan": os.path.join(work, f"scan-{job}.csv"),
            "cert_theta": os.path.join(work, f"cert-theta-{job}.json"),
            "cert_mn": os.path.join(work, f"cert-mn-{job}.json"),
        }
        pts = os.path.join(work, f"cube-{job}.csv")
        argvs = [
            ["find-pn", "--n-min", "2", "--n-max", str(size["n_max"]), "--out", out["pn"]],
            ["scan-psi", "--n", size["scan_n"], "--p-grid", size["grid"], "--out", out["scan"]],
            ["singular-config", "--n", str(side), "--p", repr(p), "--cert-cap", str(side),
             "--out-points", pts, "--out-cert", out["cert_theta"]],
            ["singular-config", "--m", str(m), "--n", str(side), "--cert-cap", str(side),
             "--out-points", pts, "--out-cert", out["cert_mn"]],
        ]
        return argvs, out

    def check(record, outputs, p):
        rows = _read_table(outputs["pn"])
        if [int(r[0]) for r in rows] != list(range(2, size["n_max"] + 1)):
            return "find-pn rows do not cover n = 2..n_max"
        pn = [r[1] for r in rows]
        if any(not a > b for a, b in zip(pn, pn[1:])):
            return "p_n is not strictly decreasing"
        worst = max(int(r[0]) * (r[1] - 2.0) for r in rows)
        if not worst <= RATE_MAX:
            return f"n (p_n - 2) reaches {worst} > {RATE_MAX}"
        if not abs(pn[0] - P2_REFERENCE) <= P2_TOL:
            return f"p_2 = {pn[0]!r} differs from {P2_REFERENCE} by more than {P2_TOL:g}"
        if len(_read_table(outputs["scan"])) != grid_rows:
            return f"scan-psi did not write {grid_rows} rows"
        for key in ("cert_theta", "cert_mn"):
            with open(outputs[key], encoding="utf-8") as fh:
                cert = json.load(fh)
            if cert.get("pass") is not True:
                return f"{key} certificate does not pass"
            if key == "cert_theta" and cert["p"] != p:
                return f"theta certificate is for p = {cert['p']}, expected {p}"
        return None

    return Workload("singular", P_SINGULAR, rotate, make_job, check)


def make_workload(name: str, seed: int, work: str, size_set: str = "full") -> Workload:
    """Generate the inputs of workload `name` for `seed` under directory `work`."""
    size = SIZES[size_set][name]
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    rotate = seed % 4
    if name == "certify":
        return _certify(work, rng, size, rotate)
    if name in ("interp", "fit"):
        return _interp(name, work, rng, size, rotate)
    return _singular(work, size, rotate)
