"""Singular p-norm distance matrices from orthogonal cube configurations.

For p > 2, take the 2^m vertices of [-m^(-1/p), m^(-1/p)]^m and the 2^n
vertices of [theta*(-n^(-1/p)), theta*n^(-1/p)]^n, embedded in orthogonal
coordinate blocks of R^(m+n). Two facts collapse the (2^m+2^n)-point
interpolation system to the 2x2 system `reduced_system(m, n, theta, p)`:

  (i)  every cross-pair distance equals (1 + theta^p)^(1/p) (= 2^(1/p) at
       theta = 1), and
  (ii) the within-cube distance sum is the same from every base vertex,
       namely 2*sum_k C(m,k) (k/m)^(1/p) for the first cube.

Scaling the 2x2 determinant by 2^-(m+n) produces, in terms of the Bernstein
value B_i = 2^-i sum_j C(i,j) (j/i)^(1/p) of t -> t^(1/p) at 1/2,

    phi(m, n, p, theta) = 4 theta B_m B_n - (1 + theta^p)^(2/p)
    psi(n, p)           = 2 B_n - 2^(1/p)

with the factorization phi(n,n,p) = (2 B_n + 2^(1/p)) * psi(n) at theta = 1.
psi_n is strictly increasing in p, negative at p = 2, with limit 1 - 2^(1-n)
as p -> inf, so for n >= 2 it has a unique root p_n > 2 and the cube pair
is singular exactly there; p_n decreases to 2 at rate O(1/n). For p between
the roots, rescaling the second cube by a solved theta* < 1 restores
singularity, which covers every p > 2.

Root finding is plain bisection: monotonicity makes it certified-correct
and no derivative is needed. `certify_singular` is the trust anchor for the
2x2 reduction: on the full distance matrix it checks facts (i) and (ii)
entry by entry and row by row against the reduced system, then the residual
r = ||A v|| / (sigma_max ||v||) of an explicit block-constant null vector v.
By Courant-Fischer sigma_min <= r sigma_max, and by Perron-Frobenius sigma_max
is the Perron root of the 2x2 reduced matrix, so no SVD is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError
from .geometry import (
    PExponent,
    PLike,
    PointSet,
    as_pexponent,
    build_distance_matrix,
)

MAX_BERNSTEIN_DEGREE = 50  # binomials C(k, j) stay exact in doubles through here
MAX_CUBE_SIDE = 12  # cube pairs up to 2^12 + 2^12 points
DEFAULT_ROOT_TOL = 1e-12
DEFAULT_CERT_TOL = 1e-8
DEFAULT_CERT_SIDE_CAP = 5  # full matrices up to 2^5 + 2^5 = 64 points
REDUCTION_RTOL = 1e-12  # relative deviation allowed in the reduction identities


def bernstein_half(i: int, p: PLike) -> float:
    """Bernstein value of t -> t^(1/p) at t = 1/2, degree i in [1, MAX_BERNSTEIN_DEGREE].

    2^(-i) sum_{j=0}^{i} C(i,j) (j/i)^(1/p), with the j = 0 term defined as 0.
    """
    if not 1 <= i <= MAX_BERNSTEIN_DEGREE:
        raise ValueError(f"degree must be in [1, {MAX_BERNSTEIN_DEGREE}], got {i}")
    q = as_pexponent(p).p
    binomials = np.array([math.comb(i, j) for j in range(1, i + 1)], dtype=float)
    return float(np.sum(binomials * np.power(np.arange(1, i + 1) / i, 1.0 / q))) * 2.0 ** (-i)


def psi(n: int, p: PLike) -> float:
    """2 B_n - 2^(1/p): the factor of phi(n,n) whose root makes the pair singular."""
    pe = as_pexponent(p)
    return 2.0 * bernstein_half(n, pe) - 2.0 ** (1.0 / pe.p)


def psi_limit(p: PLike) -> float:
    """Pointwise limit of psi_n: 2^(1-1/p) - 2^(1/p); zero exactly at p = 2."""
    pe = as_pexponent(p)
    return 2.0 ** (1.0 - 1.0 / pe.p) - 2.0 ** (1.0 / pe.p)


def phi(m: int, n: int, p: PLike, theta: float = 1.0) -> float:
    """Scaled determinant 4 theta B_m B_n - (1 + theta^p)^(2/p) of the cube pair."""
    pe = as_pexponent(p)
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    return 4.0 * theta * bernstein_half(m, pe) * bernstein_half(n, pe) - (
        1.0 + theta**pe.p
    ) ** (2.0 / pe.p)


# ---------------------------------------------------------------------------
# Cube configurations


@dataclass(frozen=True)
class CubeConfig:
    """Two orthogonal cubes: 2^m + 2^n points in dimension m + n.

    The first cube has half-width m^(-1/p) (its vertices lie on the p-norm
    unit sphere); the second has half-width theta * n^(-1/p).
    """

    m: int
    n: int
    theta: float
    p: PExponent
    points: PointSet

    @property
    def first_count(self) -> int:
        return 2**self.m

    @property
    def second_count(self) -> int:
        return 2**self.n


def _sign_grid(k: int) -> np.ndarray:
    """(2^k, k) array of +-1 sign patterns; bit j of the row index sets column j."""
    idx = np.arange(2**k)[:, None]
    bits = (idx >> np.arange(k)[None, :]) & 1
    return 2.0 * bits - 1.0


def cube_config(m: int, n: int, theta: float, p: PLike) -> CubeConfig:
    """Build the two-cube configuration; `certify_singular` checks its reduction."""
    if not (1 <= m <= MAX_CUBE_SIDE and 1 <= n <= MAX_CUBE_SIDE):
        raise ValueError(f"m and n must be in [1, {MAX_CUBE_SIDE}], got m={m}, n={n}")
    pe = as_pexponent(p)
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    a = m ** (-1.0 / pe.p)
    b = theta * n ** (-1.0 / pe.p)
    gm = np.zeros((2**m, m + n))
    gm[:, :m] = a * _sign_grid(m)
    gn = np.zeros((2**n, m + n))
    gn[:, m:] = b * _sign_grid(n)
    points = PointSet(np.vstack([gm, gn]))
    if not points.is_distinct():
        raise ValueError(
            f"cube configuration has coincident points: a half-width underflows to 0 "
            f"(m^(-1/p) = {a:g}, theta * n^(-1/p) = {b:g})"
        )
    return CubeConfig(m=m, n=n, theta=float(theta), p=pe, points=points)


@dataclass(frozen=True)
class ReducedSystem:
    """The 2x2 system in the per-cube coefficients (lambda, mu)."""

    matrix: np.ndarray
    m: int
    n: int
    theta: float
    p: PExponent

    def det(self) -> float:
        a = self.matrix
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])

    def scaled_det(self) -> float:
        """det / 2^(m+n); equals phi(m, n, p, theta)."""
        return self.det() * 2.0 ** (-(self.m + self.n))

    def kernel_coefficients(self):
        """(lambda, mu) with matrix @ (lambda, mu) ~ 0, normalized, lambda > 0."""
        a, bb = self.matrix[0]
        v = np.array([bb, -a])
        return tuple(v / np.linalg.norm(v))


def reduced_system(m: int, n: int, theta: float, p: PLike) -> ReducedSystem:
    """The 2x2 matrix the interpolation equations reduce to on the cube pair."""
    pe = as_pexponent(p)
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    bm, bn = bernstein_half(m, pe), bernstein_half(n, pe)
    cross = (1.0 + theta**pe.p) ** (1.0 / pe.p)
    # 2^(i+1) B_i is twice the unscaled Bernstein sum, exactly: a power of two
    matrix = np.array(
        [
            [2.0 ** (m + 1) * bm, 2.0**n * cross],
            [2.0**m * cross, 2.0 ** (n + 1) * theta * bn],
        ]
    )
    return ReducedSystem(matrix=matrix, m=m, n=n, theta=float(theta), p=pe)


# ---------------------------------------------------------------------------
# Root finding


@dataclass(frozen=True)
class RootResult:
    value: float
    residual: float
    bracket: tuple
    iterations: int


def _bisect(f, lo: float, hi: float, tol: float) -> RootResult:
    """Bisection for f(lo) < 0 < f(hi), refined to near machine precision.

    The loop always narrows the bracket to a few ulps (the extra iterations
    are cheap and make the reported residual machine-level); tol is then
    validated as an upper bound on the final bracket width.
    """
    flo, fhi = f(lo), f(hi)
    if not (flo < 0.0 < fhi):
        raise CertificationError(
            f"internal error: invalid bracket [{lo}, {hi}] with f = ({flo}, {fhi})"
        )
    iterations = 0
    floor = 8.0 * np.finfo(float).eps * max(1.0, abs(lo), abs(hi))
    while hi - lo > floor and iterations < 200:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        fm = f(mid)
        iterations += 1
        if fm == 0.0:
            return RootResult(value=mid, residual=0.0, bracket=(lo, hi), iterations=iterations)
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    if hi - lo > tol:
        raise ValueError(
            f"requested bracket tolerance {tol:g} not reachable (achieved {hi - lo:g})"
        )
    value = 0.5 * (lo + hi)
    return RootResult(value=value, residual=abs(f(value)), bracket=(lo, hi), iterations=iterations)


def find_pn(n: int, tol: float = DEFAULT_ROOT_TOL) -> RootResult:
    """The unique root p_n > 2 of psi_n, for n >= 2.

    psi_n(2) < 0 and psi_n -> 1 - 2^(1-n) > 0 as p grows, and psi_n is
    strictly increasing, so doubling the upper end from 4 always brackets
    the single root.
    """
    if n < 2:
        raise ValueError(
            f"n must be >= 2: psi_1 tends to 1 - 2^(1-n) = 0 as p -> infinity, "
            f"so no root exists for n = {n}"
        )
    lo = 2.0 + 1e-9
    if psi(n, lo) >= 0.0:
        raise CertificationError(f"internal error: psi_{n}({lo}) is not negative")
    hi = 4.0
    for _ in range(60):
        if psi(n, hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise CertificationError(f"internal error: failed to bracket the root of psi_{n}")
    return _bisect(lambda q: psi(n, q), lo, hi, tol)


def find_pmn(m: int, n: int, tol: float = DEFAULT_ROOT_TOL) -> RootResult:
    """The root p_{m,n} of phi_{m,n}, bracketed by (p_max(m,n), p_min(m,n)).

    phi is symmetric in (m, n); for m = n this is exactly p_n. The bracket
    endpoints come from find_pn, and the interleaving
    phi_{a,a} < phi_{a,b} < phi_{b,b} (a < b) is spot-checked on a probe
    grid before bisecting.
    """
    if m < 2 or n < 2:
        raise ValueError(f"m and n must both be >= 2, got m={m}, n={n}")
    if m == n:
        return find_pn(n, tol)
    a, b = min(m, n), max(m, n)
    upper = find_pn(a, tol)  # fewer vertices -> larger root
    lower = find_pn(b, tol)
    for q in np.linspace(lower.value, upper.value, 11)[1:-1]:
        if not (phi(a, a, q) < phi(a, b, q) < phi(b, b, q)):
            raise CertificationError(
                f"internal error: phi interleaving violated at p={q} for (m,n)=({a},{b})"
            )
    return _bisect(lambda q: phi(m, n, q), lower.value, upper.value, tol)


def find_theta(n: int, p: PLike, tol: float = DEFAULT_ROOT_TOL) -> RootResult:
    """The cube rescaling theta* in (0, 1) making the (n, n) pair singular at p.

    Bisects phi(n, n, p, theta) over theta. Requires p > p_n so that
    phi(n, n, p, 1) > 0; psi_n is strictly increasing, so that is
    psi_n(p) > 0, and p_n itself is only computed for the error message.
    The lower end of the theta bracket halves until the value goes negative
    (the theta -> 0 limit is -1).
    """
    pe = as_pexponent(p)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if psi(n, pe) <= 0.0:
        raise ValueError(
            f"p ≤ p_n: a theta-scaled singular pair needs p > p_{n} = "
            f"{find_pn(n, tol).value:.12g}, got p = {pe.p}"
        )
    theta_lo = 0.5
    for _ in range(200):
        if phi(n, n, pe, theta_lo) < 0.0:
            break
        theta_lo *= 0.5
    else:
        raise CertificationError("internal error: failed to bracket theta*")
    return _bisect(lambda t: phi(n, n, pe, t), theta_lo, 1.0, tol)


# ---------------------------------------------------------------------------
# Certification


@dataclass(frozen=True)
class CertificationRecord:
    m: int
    n: int
    theta: float
    p: float
    sigma_max: float
    lam: float
    mu: float
    residual: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "theta": self.theta,
            "p": self.p,
            "sigma_max": self.sigma_max,
            "lambda": self.lam,
            "mu": self.mu,
            "residual": self.residual,
            "pass": self.passed,
        }


def certify_singular(
    config: CubeConfig,
    tol: float = DEFAULT_CERT_TOL,
    side_cap: int = DEFAULT_CERT_SIDE_CAP,
) -> CertificationRecord:
    """End-to-end singularity certificate for a cube configuration at a root.

    Builds the full (2^m + 2^n)-point p-norm distance matrix A and first
    checks the 2x2 reduction on it: every cross entry equals
    (1 + theta^p)^(1/p), and every row's two block sums equal the matching
    row of `reduced_system(...).matrix`, both to relative REDUCTION_RTOL.
    Then it checks ||A v|| / (sigma_max ||v||) <= tol for the block-constant
    v = (lambda, ..., mu, ...) from the reduced system's kernel; by
    Courant-Fischer that bounds sigma_min / sigma_max by tol too. A is
    symmetric, positive off the diagonal and equitably partitioned by the
    cubes, so by Perron-Frobenius sigma_max is the Perron root of the 2x2
    reduced matrix and no SVD is taken. Raises CertificationError on failure
    (a reduction bug or a root residual too large). The side cap bounds the
    2^m + 2^n matrix work; raise it explicitly for larger cubes.
    """
    if max(config.m, config.n) > side_cap:
        raise ValueError(
            f"full-matrix certification capped at side {side_cap} (got m={config.m}, "
            f"n={config.n}); pass side_cap (--cert-cap on the CLI) to override"
        )
    A = build_distance_matrix(config.points, config.p).entries
    rs = reduced_system(config.m, config.n, config.theta, config.p)
    first, second = config.first_count, config.second_count
    cross = rs.matrix[0, 1] / second  # exact: the entry is 2^n (1 + theta^p)^(1/p)
    cross_dev = float(np.abs(A[:first, first:] - cross).max()) / cross
    sums = np.stack([A[:, :first].sum(axis=1), A[:, first:].sum(axis=1)], axis=1)
    expected = np.repeat(rs.matrix, [first, second], axis=0)
    sums_dev = float((np.abs(sums - expected) / expected).max())
    if not max(cross_dev, sums_dev) <= REDUCTION_RTOL:
        raise CertificationError(
            f"cube pair does not reduce to the 2x2 system: relative deviation of "
            f"cross distances {cross_dev:.3e}, of row block sums {sums_dev:.3e}, "
            f"limit {REDUCTION_RTOL:g}"
        )
    lam, mu = rs.kernel_coefficients()
    v = np.concatenate([np.full(first, lam), np.full(second, mu)])
    (a, b), (c, d) = rs.matrix
    sigma_max = float(0.5 * (a + d) + math.sqrt((0.5 * (a - d)) ** 2 + b * c))
    residual = float(np.linalg.norm(A @ v) / (sigma_max * np.linalg.norm(v)))
    passed = residual <= tol
    record = CertificationRecord(
        m=config.m,
        n=config.n,
        theta=config.theta,
        p=config.p.p,
        sigma_max=sigma_max,
        lam=float(lam),
        mu=float(mu),
        residual=residual,
        passed=passed,
    )
    if not passed:
        raise CertificationError(
            f"singularity certification failed: null residual = {residual:.3e}, tol = {tol:g}",
            record=record,
        )
    return record


def rate_table(ns, tol: float = DEFAULT_ROOT_TOL):
    """Rows (n, p_n, n*(p_n - 2)) for empirical convergence-rate inspection.

    Checks that p_n is strictly decreasing in n, stays above 2, and that the
    rate n*(p_n - 2) stays under a fixed constant.
    """
    rows = []
    for n in ns:
        root = find_pn(int(n), tol)
        rows.append((int(n), root.value, int(n) * (root.value - 2.0)))
    by_n = sorted(rows)
    for (n1, p1, r1), (n2, p2, _) in zip(by_n, by_n[1:]):
        if not p1 > p2:
            raise CertificationError(f"p_n not strictly decreasing between n={n1} and n={n2}")
    for n, pn, rate in rows:
        if not pn > 2.0:
            raise CertificationError(f"p_{n} = {pn} is not above 2")
        if not rate <= 4.0:
            raise CertificationError(f"rate n*(p_n - 2) = {rate} at n={n} exceeds bound 4")
    return rows
