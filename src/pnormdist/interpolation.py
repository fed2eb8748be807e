"""Radial basis function interpolation with p-norm distance matrices.

Fit solves A lambda = f with A_ij = profile(||x^i - x^j||_p) and evaluates
s(x) = sum_i lambda_i profile(||x - x^i||_p). The centres must be distinct:
two equal centres make two equal rows of A. The guarantee comes from one
`profiles.predict` call: A is provably nonsingular when the catalog predicts
it strictly AND and profile(0) >= 0 (a strictly AND matrix with non-negative
trace has one positive and n-1 negative eigenvalues), or when it predicts
A positive definite. A solve failure there is a numerical breakdown; other
(p, profile) pairs carry no guarantee, and a singular system raises with
the matrix's AND report and the prediction's source.

The solver is the one Bunch-Kaufman LDL^T factorization of
`andmatrix.ldl_factor` (the matrix is not positive definite, so plain
Cholesky would be wrong): dsytrs solves with its factors and dsycon gives
the condition estimate, LAPACK's 1-norm estimate ||A||_1 ||A^-1||_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from . import profiles as prof
from .andmatrix import VERDICT_STRICTLY_AND, check_and, ldl_factor
from .errors import CertificationError, SingularSystemError
from .geometry import (
    PointSet,
    PointsLike,
    as_point_set,
    build_distance_matrix,
    finite_positive,
    power_sum_blocks,
)

FIT_TOL = 1e-8  # largest relative residual ||A lambda - f|| / ||f|| of a fit


@dataclass(frozen=True)
class Interpolant:
    centers: PointSet
    coefficients: np.ndarray
    p: float
    profile: prof.RadialProfile
    condition_estimate: float
    guaranteed: bool

    def __call__(self, query):
        return evaluate_interpolant(self, query)

    def evaluate_many(self, queries) -> np.ndarray:
        """s(x) for each row x of a (k, d) array, one block of queries at a time."""
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2 or queries.shape[1] != self.centers.d:
            raise ValueError(
                f"queries must have shape (k, {self.centers.d}), got {queries.shape}"
            )
        if not np.isfinite(queries).all():
            raise ValueError("queries must have finite coordinates")
        out = np.empty(queries.shape[0])
        for start, stop, sums in power_sum_blocks(queries, self.centers.points, self.p):
            vals = self.profile.apply_to_power_sums(sums, self.p)
            # vecdot reduces each row with the dot product np.dot uses on two
            # vectors (a matrix-vector product sums in another order), so a
            # value does not depend on the block its query falls in
            out[start:stop] = np.vecdot(vals, self.coefficients)
        return out


def fit(
    x: PointsLike,
    f,
    p: float,
    profile: Optional[prof.RadialProfile] = None,
) -> Interpolant:
    """Solve the interpolation system and return an evaluable interpolant.

    The relative residual ||A lambda - f|| / ||f|| must come out at most FIT_TOL.
    Coincident centres raise ValueError naming the first pair (1-based
    rows). `guaranteed` is the module's single rule, read from one
    `profiles.predict`: a strictly AND matrix with profile(0) >= 0, or a
    positive definite one. A failed solve raises CertificationError if
    guaranteed, else SingularSystemError; both name the prediction's source.
    """
    pts = as_point_set(x)
    p = finite_positive(p)
    if profile is None:
        profile = prof.identity()
    f = np.asarray(f, dtype=float)
    if f.shape != (pts.n,):
        raise ValueError(f"data must have shape ({pts.n},), got {f.shape}")
    if not np.isfinite(f).all():
        raise ValueError("data values must be finite")
    pair = pts.first_coincident_pair()
    if pair is not None:
        raise ValueError(
            f"centres in rows {pair[0] + 1} and {pair[1] + 1} coincide; equal centres make "
            "equal rows of the interpolation matrix, which no profile or p can fit"
        )
    predicted, source = prof.predict(profile, p, pts.n, True)
    guaranteed = (
        predicted == VERDICT_STRICTLY_AND and profile(0.0) >= 0.0
    ) or predicted == prof.POSITIVE_DEFINITE

    if pts.n == 1:
        phi0 = profile(0.0)
        if phi0 == 0.0:
            if f[0] != 0.0:
                raise SingularSystemError(
                    "1x1 system with profile(0) = 0 cannot match nonzero data"
                )
            return Interpolant(pts, np.zeros(1), p, profile, float("inf"), False)
        return Interpolant(pts, f / phi0, p, profile, 1.0, guaranteed)

    A = build_distance_matrix(pts, p, profile).entries
    lu, ipiv, _ = ldl_factor(A)
    coeffs = lapack.dsytrs(lu, ipiv, f)[0]
    fnorm = float(np.linalg.norm(f))
    denom = fnorm if fnorm > 0.0 else 1.0
    if np.isfinite(coeffs).all():
        residual = float(np.linalg.norm(A @ coeffs - f)) / denom
        if residual <= FIT_TOL:
            # dsycon's last bits follow the address of a work buffer scipy
            # allocates (OpenBLAS dasum); single precision keeps reruns identical
            rcond = float(np.float32(lapack.dsycon(lu, ipiv, np.linalg.norm(A, 1))[0]))
            cond = 1.0 / rcond if rcond > 0.0 else float("inf")
            return Interpolant(pts, coeffs, p, profile, cond, guaranteed)
    else:
        residual = float("inf")
    if guaranteed:
        raise CertificationError(
            f"numerical breakdown: the system is provably nonsingular for p={p} "
            f"with profile {profile.describe()} (catalog prediction {predicted}: {source}), "
            f"yet the solve residual is {residual:.3e}"
        )
    report = check_and(A)
    raise SingularSystemError(
        f"singular or too ill-conditioned system (residual {residual:.3e}, "
        f"verdict {report.verdict}, det_sign {report.det_sign}); "
        f"no solvability guarantee for p={p} with profile {profile.describe()} "
        f"(catalog prediction {predicted}: {source})",
        record=report,
    )


def evaluate_interpolant(s: Interpolant, query) -> float:
    """s(x) = sum_i lambda_i profile(||x - x^i||_p per the profile's convention)."""
    q = np.asarray(query, dtype=float)
    if q.shape != (s.centers.d,):
        raise ValueError(f"query must have shape ({s.centers.d},), got {q.shape}")
    return float(s.evaluate_many(q[None, :])[0])
