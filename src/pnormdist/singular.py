"""Singular p-norm distance matrices from orthogonal cube configurations.

For p > 2, take the 2^m vertices of [-m^(-1/p), m^(-1/p)]^m and the 2^n
vertices of [theta*(-n^(-1/p)), theta*n^(-1/p)]^n, embedded in orthogonal
coordinate blocks of R^(m+n). Two facts collapse the (2^m+2^n)-point
interpolation system to the 2x2 matrix `reduced_system(m, n, theta, p)`
acting on the per-cube coefficients (lambda, mu):

  (i)  every cross-pair distance equals (1 + theta^p)^(1/p) (= 2^(1/p) at
       theta = 1), and
  (ii) the within-cube distance sum is the same from every base vertex,
       namely 2*sum_k C(m,k) (k/m)^(1/p) for the first cube.

Scaling its determinant by 2^-(m+n) produces, in terms of the Bernstein
value B_i = 2^-i sum_j C(i,j) (j/i)^(1/p) of t -> t^(1/p) at 1/2,

    phi(m, n, p, theta) = 4 theta B_m B_n - (1 + theta^p)^(2/p)
    psi(n, p)           = 2 B_n - 2^(1/p)

with the factorization phi(n,n,p) = (2 B_n + 2^(1/p)) * psi(n) at theta = 1.
psi_n is strictly increasing in p, negative at p = 2, with limit 1 - 2^(1-n)
as p -> inf, so for n >= 2 it has a unique root p_n > 2 and the cube pair
is singular exactly there; p_n decreases to 2 at rate O(1/n). For p between
the roots, rescaling the second cube by a solved theta* < 1 restores
singularity, which covers every p > 2.

`bernstein_half` and `psi` take p as a float or as a 1-D array, the scan
of a whole p grid; an array gives bit for bit the values of the float
calls. Each degree's weight and node rows are built once and cached.
Their float powers of 2, theta and 1 + theta^p go through `_power`, so a
p or theta that takes one beyond the double range raises ValueError.

Root finding is plain bisection: monotonicity makes it certified-correct
and no derivative is needed. B_i rises in p and 2^(1/p) falls, so one p
bracket [2 + 1e-9, 4] holds every root, all in [p_50, p_2] ~ [2.0074, 2.80].
`certify_singular` is the trust anchor for the 2x2 reduction, and it forms
no matrix of the pair's size. Once the points are checked to be exactly the
two sign grids, the distance matrix A depends only on Hamming distance: its
entries take m + n + 3 values, which the kernel gives on m + n + 2 of the
points. They make the 2x2 quotient of A by the cubes, an equitable partition
(Brouwer & Haemers, Spectra of Graphs, 2012, section 2.3), which is checked
against the reduced matrix: facts (i) and (ii). The residual
r = ||A v|| / (sigma_max ||v||) of the block-constant null vector v is read
from that quotient. By Courant-Fischer sigma_min <= r sigma_max, and by
Perron-Frobenius sigma_max is the Perron root of the 2x2 reduced matrix, so
no SVD is taken.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError
from .geometry import BLOCK_BYTES, PointSet, build_distance_matrix, finite_positive

MAX_BERNSTEIN_DEGREE = 50  # every weight C(i, j)/2^i is an exact double (up to i = 56)
MAX_CUBE_SIDE = 12  # the library's bound on a cube pair: a points file of 2^12 + 2^12 rows
CERT_TOL = 1e-8  # largest relative null residual of a singularity certificate
REDUCTION_RTOL = 1e-12  # relative deviation allowed in the reduction identities
_P_BRACKET = (2.0 + 1e-9, 4.0)  # holds every p_n and p_{m,n}, n <= MAX_BERNSTEIN_DEGREE
_SCALAR_POWER_SHORTCUTS = (0.5, 1.0, 2.0)  # exponents 1/p that np.power special-cases


@functools.lru_cache(maxsize=None)
def _bernstein_row(i: int) -> tuple:
    """Exact weights C(i, j)/2^i and nodes j/i for j = 1..i, built once per degree."""
    if not 1 <= i <= MAX_BERNSTEIN_DEGREE:
        raise ValueError(f"degree must be in [1, {MAX_BERNSTEIN_DEGREE}], got {i}")
    weights = np.array([math.comb(i, j) / 2**i for j in range(1, i + 1)])
    nodes = np.arange(1, i + 1) / i
    weights.flags.writeable = nodes.flags.writeable = False
    return weights, nodes


def _power(base: float, exponent: float, p: float, theta: float | None = None) -> float:
    """base ** exponent as a Python float; ValueError naming p (and theta) unless finite."""
    try:
        value = base**exponent
    except OverflowError:  # beyond the double range; an inf exponent (subnormal p) gives inf
        value = math.inf
    if not math.isfinite(value):
        at = f"p = {p!r}" + ("" if theta is None else f", theta = {theta!r}")
        raise ValueError(f"{base!r}^{exponent!r} overflows a double at {at}")
    return value


def _finite_positive_grid(p: np.ndarray) -> np.ndarray:
    """A 1-D p array as floats; raises `finite_positive`'s error for its first bad entry."""
    ps = np.asarray(p, dtype=float)
    if ps.ndim != 1:
        raise ValueError(f"p must be a float or a 1-D array, got shape {ps.shape}")
    bad = ~((ps > 0.0) & (ps < math.inf))
    if bad.any():
        finite_positive(ps[np.argmax(bad)])
    return ps


def bernstein_half(i: int, p):
    """Bernstein value of t -> t^(1/p) at t = 1/2, degree i in [1, MAX_BERNSTEIN_DEGREE].

    2^(-i) sum_{j=0}^{i} C(i,j) (j/i)^(1/p), with the j = 0 term defined as 0.
    p is a float, giving a float, or a 1-D array, giving an array that equals
    the float calls bit for bit: each row of (j/i)^(1/p) is summed in the
    same order. The array is worked in chunks of rows of at most BLOCK_BYTES.
    """
    weights, nodes = _bernstein_row(i)
    if not isinstance(p, np.ndarray):
        q = finite_positive(p)
        return float(np.sum(weights * np.power(nodes, 1.0 / q)))
    ps = _finite_positive_grid(p)
    sums = np.empty(len(ps))
    rows = max(1, BLOCK_BYTES // (8 * i))
    for start in range(0, len(ps), rows):
        chunk = slice(start, start + rows)
        with np.errstate(over="ignore"):  # 1/p is inf for subnormal p, as in float division
            exponents = 1.0 / ps[chunk]
        powers = np.power(nodes, exponents[:, None])
        # np.power takes a shortcut (sqrt, copy, square) for one scalar exponent
        # 0.5, 1 or 2, which a buffered broadcast may skip; such rows take it here
        for k in np.flatnonzero(np.isin(exponents, _SCALAR_POWER_SHORTCUTS)):
            powers[k] = np.power(nodes, exponents[k])
        sums[chunk] = (weights * powers).sum(axis=1)
    return sums


def psi(n: int, p):
    """2 B_n - 2^(1/p): the factor of phi(n,n) whose root makes the pair singular.

    p is a float or a 1-D array, as in `bernstein_half`. The term 2^(1/p)
    is a Python float power per element even for an array: numpy's array
    `power` may use SIMD code that differs from libm's pow in the last bit,
    while the (j/n)^(1/p) of `bernstein_half` is numpy's `power` either way.
    """
    if not isinstance(p, np.ndarray):
        p = finite_positive(p)
        return 2.0 * bernstein_half(n, p) - _power(2.0, 1.0 / p, p)
    ps = _finite_positive_grid(p)
    return 2.0 * bernstein_half(n, ps) - np.array([_power(2.0, 1.0 / q, q) for q in ps.tolist()])


def psi_limit(p: float) -> float:
    """Pointwise limit of psi_n: 2^(1-1/p) - 2^(1/p); zero exactly at p = 2."""
    p = finite_positive(p)
    return _power(2.0, 1.0 - 1.0 / p, p) - _power(2.0, 1.0 / p, p)


def phi(m: int, n: int, p: float, theta: float = 1.0) -> float:
    """Scaled determinant 4 theta B_m B_n - (1 + theta^p)^(2/p) of the cube pair."""
    p, theta = finite_positive(p), finite_positive(theta, "theta")
    return 4.0 * theta * bernstein_half(m, p) * bernstein_half(n, p) - _power(
        1.0 + _power(theta, p, p, theta), 2.0 / p, p, theta
    )


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
    p: float
    points: PointSet


def _sign_grid(k: int) -> np.ndarray:
    """(2^k, k) array of +-1 sign patterns; bit j of the row index sets column j."""
    idx = np.arange(2**k)[:, None]
    bits = (idx >> np.arange(k)[None, :]) & 1
    return 2.0 * bits - 1.0


def cube_config(m: int, n: int, theta: float, p: float) -> CubeConfig:
    """Build the two-cube configuration; `certify_singular` checks its reduction."""
    if not (1 <= m <= MAX_CUBE_SIDE and 1 <= n <= MAX_CUBE_SIDE):
        raise ValueError(f"m and n must be in [1, {MAX_CUBE_SIDE}], got m={m}, n={n}")
    p, theta = finite_positive(p), finite_positive(theta, "theta")
    a = m ** (-1.0 / p)
    b = theta * n ** (-1.0 / p)
    # positive half-widths keep each cube's vertices apart; the blocks are orthogonal
    if not (a > 0.0 and b > 0.0):
        raise ValueError(
            f"cube configuration has coincident points: a half-width underflows to 0 "
            f"(m^(-1/p) = {a:g}, theta * n^(-1/p) = {b:g})"
        )
    gm = np.zeros((2**m, m + n))
    gm[:, :m] = a * _sign_grid(m)
    gn = np.zeros((2**n, m + n))
    gn[:, m:] = b * _sign_grid(n)
    points = PointSet(np.vstack([gm, gn]))
    return CubeConfig(m=m, n=n, theta=theta, p=p, points=points)


def reduced_system(m: int, n: int, theta: float, p: float) -> np.ndarray:
    """The 2x2 matrix of the interpolation equations in the per-cube coefficients (lambda, mu).

    Row i holds the two block sums of a row of the full matrix in cube i.
    Its determinant scaled by 2^-(m+n) is phi(m, n, p, theta).
    """
    p, theta = finite_positive(p), finite_positive(theta, "theta")
    bm, bn = bernstein_half(m, p), bernstein_half(n, p)
    cross = _power(1.0 + _power(theta, p, p, theta), 1.0 / p, p, theta)
    # 2^(i+1) B_i is twice the unscaled Bernstein sum, exactly: a power of two
    return np.array(
        [
            [2.0 ** (m + 1) * bm, 2.0**n * cross],
            [2.0**m * cross, 2.0 ** (n + 1) * theta * bn],
        ]
    )


# ---------------------------------------------------------------------------
# Root finding


@dataclass(frozen=True)
class RootResult:
    value: float
    residual: float
    bracket: tuple
    iterations: int


def _bisect(f, lo: float, hi: float) -> RootResult:
    """Bisection for f(lo) < 0 < f(hi), narrowed to a few ulps.

    This is the one check of a root bracket: ends without that sign change
    raise CertificationError. The bracket halves down to 8 eps max(1, |lo|,
    |hi|), which makes the residual machine-level; above that it spans 8 ulps
    of either end, so the midpoint lies strictly inside and the loop ends in
    about 52 steps, if lo + hi does not overflow.
    """
    flo, fhi = f(lo), f(hi)
    if not (flo < 0.0 < fhi):
        raise CertificationError(
            f"internal error: invalid bracket [{lo}, {hi}] with f = ({flo}, {fhi})"
        )
    iterations = 0
    floor = 8.0 * np.finfo(float).eps * max(1.0, abs(lo), abs(hi))
    while hi - lo > floor:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        iterations += 1
        if fm == 0.0:
            return RootResult(value=mid, residual=0.0, bracket=(lo, hi), iterations=iterations)
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    value = 0.5 * (lo + hi)
    return RootResult(value=value, residual=abs(f(value)), bracket=(lo, hi), iterations=iterations)


def find_pn(n: int) -> RootResult:
    """The unique root p_n > 2 of psi_n, for n >= 2, bisected on [2 + 1e-9, 4].

    psi_n is strictly increasing in p and negative at p = 2, and
    p_n <= p_2 ~ 2.80 < 4, so the bracket holds the single root.
    """
    if n < 2:
        raise ValueError(
            f"n must be >= 2: psi_1 tends to 1 - 2^(1-n) = 0 as p -> infinity, "
            f"so no root exists for n = {n}"
        )
    return _bisect(lambda q: psi(n, q), *_P_BRACKET)


def find_pmn(m: int, n: int) -> RootResult:
    """The root p_{m,n} of phi_{m,n} at theta = 1, bisected on [2 + 1e-9, 4] too.

    phi_{m,n} = 4 B_m B_n - 2^(2/p) rises in p and has the sign psi_m and
    psi_n share, so it is negative at 2 + 1e-9 < p_50 ~ 2.0074 and positive
    at 4 > p_2 ~ 2.80. For m = n this is exactly p_n.
    """
    if m < 2 or n < 2:
        raise ValueError(f"m and n must both be >= 2, got m={m}, n={n}")
    if m == n:
        return find_pn(n)
    return _bisect(lambda q: phi(m, n, q), *_P_BRACKET)


def find_theta(n: int, p: float) -> RootResult:
    """The cube rescaling theta* in (0, 1) making the (n, n) pair singular at p.

    Bisects phi(n, n, p, theta) over theta. Requires p > p_n so that
    phi(n, n, p, 1) > 0; psi_n is strictly increasing, so that is
    psi_n(p) > 0, and p_n itself is only computed for the error message.
    The bracket starts at theta = 1/2 if phi < 0 there, else at 1/4, where
    phi = B_n^2 - (1 + 4^-p)^(2/p) <= B_n^2 - 1 < 0 since B_n < 1.
    """
    p = finite_positive(p)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if psi(n, p) <= 0.0:
        raise ValueError(
            f"p ≤ p_n: a theta-scaled singular pair needs p > p_{n} = "
            f"{find_pn(n).value:.12g}, got p = {p}"
        )
    theta_lo = 0.5 if phi(n, n, p, 0.5) < 0.0 else 0.25
    return _bisect(lambda t: phi(n, n, p, t), theta_lo, 1.0)


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


def certify_singular(config: CubeConfig) -> CertificationRecord:
    """End-to-end singularity certificate for a cube configuration at a root.

    The points must be exactly those `cube_config(m, n, theta, p)` builds,
    or CertificationError is raised. An entry of their distance matrix A
    then sums, in coordinate order, terms that are 0 or a value fixed by the
    pair of cubes and the coordinate, and adding an exact 0 changes nothing:
    A is g_1(k) between vertices of the first cube k coordinates apart,
    g_2(k) in the second, and one cross value between the cubes, bit for
    bit. These come from the matrix of the vertices 2^k - 1 of each cube,
    k coordinates from its first, and give every row's block sums, the
    quotient S = [[sum_k C(m,k) g_1(k), 2^n cross], [2^m cross,
    sum_k C(n,k) g_2(k)]] with each sum exactly rounded. S must equal
    `reduced_system(...)` to relative REDUCTION_RTOL: facts (i) and (ii).
    Then it checks ||A v|| / (sigma_max ||v||) <= CERT_TOL for the
    block-constant v = (lambda, ..., mu, ...) with (lambda, mu) =
    (b, -a) / ||(b, -a)|| from the first row (a, b) of the reduced matrix,
    its kernel at a root; by Courant-Fischer that bounds sigma_min / sigma_max
    by CERT_TOL too. A v is r_1 on the first cube and r_2 on the second, with
    (r_1, r_2) = S (lambda, mu), so ||A v||^2 = 2^m r_1^2 + 2^n r_2^2 and
    ||v||^2 = 2^m lambda^2 + 2^n mu^2. A is symmetric, positive off the
    diagonal and equitably partitioned by the cubes, so by Perron-Frobenius
    sigma_max is the Perron root of the 2x2 reduced matrix and no SVD is
    taken. Raises CertificationError on failure (points that are not the
    pair, a reduction bug or a root residual too large), and ValueError from
    p = 1024, where the kernel overflows, before any matrix is formed. Any
    pair `cube_config` builds below that is certified; the largest matrix
    formed is (m + n + 2) x (m + n + 2), beside a second copy of the points.
    """
    if config.p >= 1024.0:
        raise ValueError(
            f"cube pairs are certified for p < 1024, got p = {config.p:g}: the power sum "
            f"2^p of two opposite cube vertices overflows a double from p = 1024"
        )
    m, n, theta, p = config.m, config.n, config.theta, config.p
    points = config.points.points
    if not np.array_equal(points, cube_config(m, n, theta, p).points.points):
        raise CertificationError(
            f"points are not the cube pair of m = {m}, n = {n}, theta = {theta!r}, p = {p!r}"
        )
    first, second = 2**m, 2**n
    rows = [2**k - 1 for k in range(m + 1)] + [first + 2**k - 1 for k in range(n + 1)]
    g = build_distance_matrix(points[rows], p).entries
    g1, g2, cross = g[0, : m + 1], g[m + 1, m + 1 :], g[0, m + 1]
    quotient = np.array(
        [
            [math.fsum(math.comb(m, k) * g1[k] for k in range(m + 1)), second * cross],
            [first * cross, math.fsum(math.comb(n, k) * g2[k] for k in range(n + 1))],
        ]
    )
    rs = reduced_system(m, n, theta, p)
    deviation = float((np.abs(quotient - rs) / rs).max())
    if not deviation <= REDUCTION_RTOL:
        raise CertificationError(
            f"cube pair does not reduce to the 2x2 system: relative deviation of its "
            f"block sums {deviation:.3e}, limit {REDUCTION_RTOL:g}"
        )
    (a, b), (c, d) = rs
    lam, mu = np.array([b, -a]) / np.linalg.norm([b, -a])
    sigma_max = float(0.5 * (a + d) + math.sqrt((0.5 * (a - d)) ** 2 + b * c))
    r1, r2 = quotient @ [lam, mu]
    v_norm = math.sqrt(first * lam**2 + second * mu**2)
    residual = math.sqrt(first * r1**2 + second * r2**2) / (sigma_max * v_norm)
    passed = residual <= CERT_TOL
    record = CertificationRecord(
        m=m,
        n=n,
        theta=theta,
        p=p,
        sigma_max=sigma_max,
        lam=float(lam),
        mu=float(mu),
        residual=residual,
        passed=passed,
    )
    if not passed:
        raise CertificationError(
            f"singularity certification failed: null residual = {residual:.3e}, "
            f"tol = {CERT_TOL:g}",
            record=record,
        )
    return record


def rate_table(ns):
    """Rows (n, p_n, n*(p_n - 2)) for empirical convergence-rate inspection.

    Checks that p_n is strictly decreasing in n, stays above 2, and that the
    rate lies in (L, L + 2.5/n] about its limit L = 1/(4 ln 2) ~ 0.360674,
    Voronovskaya's constant; over n = 2..50 it clears both sides by 0.008.
    """
    limit = 1.0 / (4.0 * math.log(2.0))
    rows = []
    for n in ns:
        root = find_pn(int(n))
        rows.append((int(n), root.value, int(n) * (root.value - 2.0)))
    by_n = sorted(rows)
    for (n1, p1, r1), (n2, p2, _) in zip(by_n, by_n[1:]):
        if not p1 > p2:
            raise CertificationError(f"p_n not strictly decreasing between n={n1} and n={n2}")
    for n, pn, rate in rows:
        if not pn > 2.0:
            raise CertificationError(f"p_{n} = {pn} is not above 2")
        if not limit < rate <= limit + 2.5 / n:
            raise CertificationError(
                f"rate n*(p_n - 2) = {rate} at n={n} is outside (L, L + 2.5/n], L = 1/(4 ln 2)"
            )
    return rows
