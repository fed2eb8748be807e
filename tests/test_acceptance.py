"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines alongside the pytest verdicts.
"""

import ast
import importlib
import math
import os
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import pnormdist
from pnormdist.andmatrix import check_and, schoenberg_embed
from pnormdist.errors import SingularSystemError
from pnormdist.geometry import PointSet, build_distance_matrix, pow_abs
from pnormdist.interpolation import evaluate_interpolant, fit
from pnormdist.profiles import identity, matrix_from_profile
from pnormdist.singular import (
    certify_singular,
    cube_config,
    find_pmn,
    find_pn,
    find_theta,
    phi,
    rate_table,
)

UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
UNIT_SQUARE_1NORM = np.array([[0.0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d}: FAIL - {name}")
        raise
    print(f"criterion {num:02d}: PASS - {name}")


def in_order_sum(terms):
    """terms summed over the last axis in index order, one coordinate at a time."""
    out = terms[..., 0].copy()
    for k in range(1, terms.shape[-1]):
        out += terms[..., k]
    return out


def pth_power_matrix(x, p):
    n = x.shape[0]
    A = np.zeros((n, n))
    iu, ju = np.triu_indices(n, 1)
    vals = in_order_sum(pow_abs(x[iu] - x[ju], p))
    A[iu, ju] = vals
    A[ju, iu] = vals
    return A


def test_criterion_01_unit_square_reproduction():
    with criterion(1, "unit-square 1-norm matrix, zero determinant, alternating null vector"):
        start = time.perf_counter()
        dm = build_distance_matrix(UNIT_SQUARE, 1.0)
        assert np.array_equal(dm.entries, UNIT_SQUARE_1NORM)
        report = check_and(dm.entries)
        assert report.det_sign == 0
        u, s, vt = np.linalg.svd(dm.entries)
        assert s[-1] < 1e-12
        null = vt[-1] / np.linalg.norm(vt[-1])
        target = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0  # circulant eigenvector
        assert min(np.abs(null - target).max(), np.abs(null + target).max()) < 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_02_strict_and_with_alternating_determinant_sign():
    with criterion(2, "200 seeded p-norm matrices, p in (1,2): strictly AND, sign (-1)^(n-1)"):
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        hits = 0
        for k in range(200):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(2, 9))
            p = (1.1, 1.5, 1.9)[k % 3]
            x = rng.random((n, d))
            report = check_and(build_distance_matrix(x, p).entries)
            if report.verdict == "strictly-AND" and report.det_sign == (-1) ** (n - 1):
                hits += 1
        assert hits == 200
        assert time.perf_counter() - start < 10.0


def test_criterion_03_embedding_round_trip():
    with criterion(3, "50 seeded p-th-power matrices embed with residual < 1e-9"):
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        for k in range(50):
            p = (0.5, 1.0, 1.5)[k % 3]
            n = int(rng.integers(3, 11))
            d = int(rng.integers(1, 5))
            x = rng.random((n, d))
            while np.unique(x, axis=0).shape[0] < n:  # pragma: no cover
                x = rng.random((n, d))
            A = pth_power_matrix(x, p)
            emb = schoenberg_embed(A)
            assert emb.residual < 1e-9
            sq = emb.squared_distances()
            off = sq[np.triu_indices(n, 1)]
            assert off.min() > 0.0  # embedded vectors pairwise distinct
        assert time.perf_counter() - start < 5.0


def test_criterion_04_p2_closed_form():
    with criterion(4, "p_2 agrees with ln 2 / ln((1+sqrt(17))/4) to 1e-10"):
        closed = math.log(2.0) / math.log((1.0 + math.sqrt(17.0)) / 4.0)
        assert abs(find_pn(2).value - closed) < 1e-10


def test_criterion_05_decreasing_exponents_with_bounded_rate():
    with criterion(5, "p_n strictly decreasing over n=2..40 with n(p_n - 2) in a stable band"):
        start = time.perf_counter()
        rows = rate_table(range(2, 41))
        values = [pn for _, pn, _ in rows]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 2.0 for v in values)
        rates = {n: r for n, _, r in rows}
        assert max(rates.values()) < math.inf
        band = [rates[n] for n in range(10, 41)]
        assert max(band) / min(band) < 3.0
        assert time.perf_counter() - start < 10.0


def test_criterion_06_root_ordering_and_interleaving():
    with criterion(6, "p_2 > p_{2,3} > p_3 at residual < 1e-13, phi interleaving on 20 probes"):
        p2 = find_pn(2)
        p3 = find_pn(3)
        p23 = find_pmn(2, 3)
        for root in (p2, p3, p23):
            assert root.residual < 1e-13
        assert p2.value > p23.value > p3.value
        for q in np.linspace(2.0, 3.0, 22)[1:-1]:
            assert phi(2, 2, q) < phi(2, 3, q) < phi(3, 3, q)


def test_criterion_07_full_matrix_certification():
    with criterion(7, "full matrices at (2,2), (2,3), (3,3) roots certify singular at 1e-8"):
        start = time.perf_counter()
        for m, n in ((2, 2), (2, 3), (3, 3)):
            cfg = cube_config(m, n, 1.0, find_pmn(m, n).value)
            record = certify_singular(cfg)
            A = build_distance_matrix(cfg.points, cfg.p).entries
            svals = np.linalg.svd(A, compute_uv=False)
            assert svals[-1] / svals[0] < 1e-8
            assert record.residual < 1e-8
        assert time.perf_counter() - start < 10.0


def test_criterion_08_theta_sweep_covers_all_p():
    with criterion(8, "theta-scaled pairs certify at p = 2.2, 2.5, 3.0"):
        for p in (2.2, 2.5, 3.0):
            n = 2
            while find_pn(n).value >= p:
                n += 1
            root = find_theta(n, p)
            assert abs(phi(n, n, p, root.value)) < 1e-12
            record = certify_singular(cube_config(n, n, root.value, p))
            assert record.passed


def test_criterion_09_interpolation_pipeline():
    with criterion(9, "p=1.5 fit reproduces data at 1e-8; p=1 unit square raises singular"):
        rng = np.random.default_rng(909)
        x = rng.random((20, 3))
        f = rng.standard_normal(20)
        s = fit(x, f, 1.5, identity())
        for xi, fi in zip(x, f):
            assert abs(evaluate_interpolant(s, xi) - fi) < 1e-8
        with pytest.raises(SingularSystemError):
            fit(UNIT_SQUARE, [1.0, 0.0, 0.0, 0.0], 1.0, identity())


def test_criterion_10_positive_definite_catalog():
    with criterion(10, "exp kernels positive definite on 20 seeded distinct point sets"):
        rng = np.random.default_rng(1010)
        for _ in range(20):
            n = int(rng.integers(5, 26))
            d = int(rng.integers(1, 5))
            x = rng.standard_normal((n, d))
            r1 = build_distance_matrix(x, 1.0).entries
            assert np.linalg.eigvalsh(np.exp(-r1)).min() > 0.0
            r2 = build_distance_matrix(x, 2.0).entries
            for alpha in (0.5, 1.5):
                assert np.linalg.eigvalsh(np.exp(-(r2**alpha))).min() > 0.0


# ---------------------------------------------------------------------------
# Public surface

PUBLIC_API = [
    "AndReport",
    "CertificationError",
    "CertificationRecord",
    "CubeConfig",
    "DistanceMatrix",
    "Embedding",
    "EmbeddingError",
    "InputError",
    "Interpolant",
    "NotAndError",
    "PointSet",
    "RadialProfile",
    "RootResult",
    "SingularSystemError",
    "VerdictMismatchError",
    "bernstein_half",
    "build_distance_matrix",
    "certify_singular",
    "check_and",
    "compose",
    "cube_config",
    "evaluate_interpolant",
    "exponential",
    "find_pmn",
    "find_pn",
    "find_theta",
    "fit",
    "identity",
    "matrix_from_profile",
    "multiquadric",
    "phi",
    "power",
    "psi",
    "psi_limit",
    "rate_table",
    "read_matrix_csv",
    "read_points_csv",
    "reduced_system",
    "restrict_to_zero_sum",
    "schoenberg_embed",
    "write_matrix_csv",
    "write_points_csv",
]


def test_readme_library_tour_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    names = {}
    exec(compile(code, "README.md", "exec"), names)
    assert names["root"].value == pytest.approx(2.80097422586, abs=1e-11)
    assert names["s"](names["x"][0]) == pytest.approx(names["f"][0], abs=1e-8)


@pytest.mark.parametrize(
    "demo", sorted((Path(__file__).parents[1] / "demos").glob("*.py")), ids=lambda path: path.name
)
def test_demo_runs(demo):
    # as a user runs it: its own interpreter on the source tree, warnings as errors
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    run = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], env=env, capture_output=True, timeout=300
    )
    assert run.returncode == 0, run.stderr.decode()


def test_public_api_is_pinned():
    # a name added here needs a caller among the demos, the CLI or the tests
    assert sorted(pnormdist.__all__) == PUBLIC_API
    assert all(hasattr(pnormdist, name) for name in PUBLIC_API)


# every record that holds an array, directly or through another record, built
# through the library; each call builds a new one with equal contents
RECORDS = {
    "PointSet": lambda: PointSet(UNIT_SQUARE),
    "DistanceMatrix": lambda: build_distance_matrix(UNIT_SQUARE, 1.5),
    "AndReport": lambda: check_and(build_distance_matrix(UNIT_SQUARE, 1.5).entries),
    "Embedding": lambda: schoenberg_embed(build_distance_matrix(UNIT_SQUARE, 1.5).entries),
    "Interpolant": lambda: fit(UNIT_SQUARE, [0.0, 1.0, 2.0, 3.0], 1.5),
    "CubeConfig": lambda: cube_config(2, 2, 1.0, 3.0),
    "ProfileMatrixResult": lambda: matrix_from_profile(UNIT_SQUARE, 1.5, identity()),
}


@pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS)
def test_records_with_arrays_compare_and_hash(build):
    # an array has no single truth value, so a record holding one compares by
    # identity, and a record of such records compares field by field
    a, b = build(), build()
    assert a == a
    assert a != b
    assert len({a, b}) == 2


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads.

    A name counts as read when it appears as a name anywhere, inside a
    string annotation, or in `__all__`; `from __future__` imports are exempt.
    """
    tree = ast.parse(source)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    parsed = ast.parse(part.value, mode="eval")
                    read.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    root = Path(__file__).parents[1]
    files = sorted(
        path for top in ("src/pnormdist", "tests", "demos") for path in (root / top).rglob("*.py")
    )
    assert len(files) > 20
    unused = {
        str(path.relative_to(root)): names
        for path in files
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_unused_imports_scan():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import math\n"
        "from typing import TYPE_CHECKING, Optional\n"
        "from .x import shown\n"
        "if TYPE_CHECKING:\n"
        "    from .y import Profile\n"
        "__all__ = ['shown']\n"
        "def f(a: 'Optional[Profile]') -> None:\n"
        "    return os.path.join(a)\n"
    )
    assert unused_imports(source) == ["math (line 3)"]


def write_opens(source: str) -> list[str]:
    """Calls of `open(path, mode)` or `path.open(mode)` whose mode writes,
    appends or creates, or is not a literal, as "open (line N)".
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            position = 1
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            position = 0
        else:
            continue
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[position:]
        if not modes:
            continue  # the default mode reads
        mode = modes[0]
        if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
            found.append(f"open (line {node.lineno})")
    return found


def test_only_serialize_opens_files_for_writing():
    # every CSV and JSON file is written by pnormdist.serialize
    package = Path(__file__).parents[1] / "src" / "pnormdist"
    writers = {
        path.name: found
        for path in sorted(package.rglob("*.py"))
        if (found := write_opens(path.read_text(encoding="utf-8")))
    }
    assert list(writers) == ["serialize.py"], writers


def test_write_opens_scan():
    source = (
        'open(p)\n'
        'open(p, "rb")\n'
        'open(p, "w", encoding="utf-8")\n'
        'open(p, mode="a")\n'
        'path.open("r+")\n'
        'open(p, mode)\n'
        'path.open()\n'
    )
    assert write_opens(source) == [f"open (line {n})" for n in (3, 4, 5, 6)]


def traced_targets():
    """Every (module, attribute) that bench/tracing.py wraps, read from its source.

    The SPANS and PEAKS tables hold (name, module, attribute) triples; install()
    also patches single targets with patch("module", "attribute", wrapper).
    """
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "tracing.py").read_text())
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANS", "PEAKS") for t in node.targets
        ):
            targets.update((module, attr) for _, module, attr in ast.literal_eval(node.value))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "patch"
            and len(node.args) == 3
            and all(isinstance(a, ast.Constant) for a in node.args[:2])
        ):
            targets.add((node.args[0].value, node.args[1].value))
    return targets


def test_bench_tracing_targets_resolve():
    targets = traced_targets()
    assert {("interpolation", "evaluate_interpolant"), ("singular", "_bisect")} <= targets
    assert ("andmatrix", "det_sign_logmag") in targets
    for module, attr in sorted(targets):
        owner = importlib.import_module(f"pnormdist.{module}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"no pnormdist.{module}.{attr} to trace"
            owner = getattr(owner, part)
        assert callable(owner)
