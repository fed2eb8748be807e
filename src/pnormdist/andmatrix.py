"""Almost-negative-definite (AND) matrix machinery.

A symmetric A is AND when y^T A y <= 0 for every y in the zero-sum
hyperplane Z_n = {y : sum y_i = 0}, and strictly AND when the inequality is
strict for nonzero y. The test basis is f^i = e^n - e^i (i < n), which spans
Z_n with integer entries; in that basis the negated form has the closed-form
entries

    B'_ij = A_in + A_nj - A_ij - A_nn,   1 <= i, j <= n-1,

so A is AND iff B' is non-negative definite, strictly AND iff B' is positive
definite.

An AND matrix with zero diagonal is exactly a matrix of squared Euclidean
distances (Schoenberg): A_ij = |y^i - y^j|^2 for some vectors y^i. The
embedding here follows that construction, fixing y^n = 0.

A strictly AND matrix with non-negative trace has n-1 negative and 1
positive eigenvalue, hence (-1)^(n-1) det A > 0; `check_and` reads that
sign from the pivots of A's LDL^T factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from .errors import EmbeddingError, NotAndError

VERDICT_NOT_AND = "not-AND"
VERDICT_AND = "AND"
VERDICT_STRICTLY_AND = "strictly-AND"

_VERDICT_RANK = {VERDICT_NOT_AND: 0, VERDICT_AND: 1, VERDICT_STRICTLY_AND: 2}

EIG_TOL = 1e-10  # eigenvalue and pivot cut-off, relative to |A|_max


def verdict_rank(verdict: str) -> int:
    return _VERDICT_RANK[verdict]


def _require_symmetric(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if not np.array_equal(A, A.T):
        raise ValueError("matrix must be symmetric")
    return A


@dataclass(frozen=True)
class AndReport:
    """Verdict record for one matrix.

    restricted_eigenvalues is the spectrum of the (negated-back) quadratic
    form of A on the zero-sum hyperplane, i.e. the negatives of B''s
    eigenvalues, sorted ascending. det_log_magnitude is None when the
    determinant is numerically zero.
    """

    verdict: str
    restricted_eigenvalues: np.ndarray
    trace: float
    det_sign: int
    det_log_magnitude: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "eigenvalues": [float(v) for v in self.restricted_eigenvalues],
            "trace": float(self.trace),
            "det_sign": int(self.det_sign),
            "det_log_magnitude": (
                "zero" if self.det_log_magnitude is None else float(self.det_log_magnitude)
            ),
        }


def restrict_to_zero_sum(A) -> np.ndarray:
    """Negated form of A on the zero-sum hyperplane, in the e^n - e^i basis.

    Returns the (n-1) x (n-1) matrix B' with B'_ij = A_in + A_nj - A_ij - A_nn.
    A is AND iff B' is non-negative definite; strictly AND iff positive
    definite. This is where A is validated: it must be square, symmetric and
    n >= 2. Raises ValueError when an entry of B' overflows a double.
    """
    A = _require_symmetric(A)
    n = A.shape[0]
    if n < 2:
        raise ValueError("need n >= 2 (the zero-sum hyperplane of a 1x1 matrix is trivial)")
    with np.errstate(over="ignore"):
        B = A[:-1, -1][:, None] + A[-1, :-1][None, :] - A[:-1, :-1] - A[-1, -1]
    if not np.isfinite(B).all():
        raise ValueError("the zero-sum restriction of the matrix overflows a double; rescale it")
    return B


def ldl_factor(A):
    """Bunch-Kaufman LDL^T factorization of a symmetric A (LAPACK dsytrf).

    Returns (lu, ipiv, pivots): `lu` and `ipiv` are dsytrf's factors of
    A = U D U^T in upper storage, ready for dsytrs and dsycon; `pivots` holds
    the eigenvalues of D's 1x1 and 2x2 diagonal blocks. By Sylvester's law of
    inertia their signs are the inertia of A, and their product is det A.
    Upper storage matches LAPACK's dsysv routine, so solves agree with it bit
    for bit.
    """
    n = A.shape[0]
    lwork = max(1, int(lapack.dsytrf_lwork(n, lower=0)[0]))
    lu, ipiv, _ = lapack.dsytrf(A, lower=0, lwork=lwork)
    diag, off, kinds = np.diag(lu).tolist(), np.diag(lu, 1).tolist(), ipiv.tolist()
    pivots, k = [], 0
    while k < n:
        if kinds[k] > 0:  # 1x1 block
            pivots.append(diag[k])
            k += 1
        else:  # 2x2 block [[a, b], [b, c]]: larger-magnitude eigenvalue, then det / it
            # at unit scale a*c - b*b cannot overflow; power-of-two scaling is exact
            e = math.frexp(max(abs(diag[k]), abs(off[k]), abs(diag[k + 1])))[1]
            a, b, c = (math.ldexp(v, -e) for v in (diag[k], off[k], diag[k + 1]))
            mean = 0.5 * (a + c)
            big = mean + math.copysign(math.hypot(0.5 * (a - c), b), mean)
            pivots += [math.ldexp(big, e), math.ldexp((a * c - b * b) / big, e)]
            k += 2
    return lu, ipiv, np.array(pivots)


def det_sign_logmag(A: np.ndarray, cut: float):
    """Sign and log-magnitude of det(A) from the pivots of the LDL^T factorization.

    The sign is (-1)^(number of negative pivots) and the log-magnitude the
    sum of log|pivot|, so the magnitude never overflows; a pivot at or below
    `cut` makes the determinant numerically zero, returned as (0, None).
    The caller validates A (a symmetric float array) and scales the cut-off
    with A, as `check_and` does, so the answer does not depend on its units.
    """
    _, _, pivots = ldl_factor(A)
    if np.any(np.abs(pivots) <= cut):
        return 0, None
    sign = -1 if np.count_nonzero(pivots < 0) % 2 else 1
    return sign, float(np.sum(np.log(np.abs(pivots))))


def check_and(A) -> AndReport:
    """Classify A as not-AND / AND / strictly-AND from its restricted spectrum.

    Eigenvalue comparisons are relative to scale = |A|_max, so the verdict
    does not change when A is multiplied by a positive number; the
    determinant sign and log-magnitude come from the pivots of A's one
    Bunch-Kaufman LDL^T factorization (`det_sign_logmag`), with the same
    cut-off EIG_TOL * |A|_max.
    """
    A = np.asarray(A, dtype=float)
    B = restrict_to_zero_sum(A)
    mu = np.linalg.eigvalsh(B)
    cut = EIG_TOL * float(np.abs(A).max())
    if mu.min() > cut:
        verdict = VERDICT_STRICTLY_AND
    elif mu.min() >= -cut:
        verdict = VERDICT_AND
    else:
        verdict = VERDICT_NOT_AND
    sign, logmag = det_sign_logmag(A, cut)
    restricted = np.sort(-mu)
    return AndReport(
        verdict=verdict,
        restricted_eigenvalues=restricted,
        trace=float(np.trace(A)),
        det_sign=sign,
        det_log_magnitude=logmag,
    )


@dataclass(frozen=True)
class Embedding:
    """Vectors y^1..y^n with |y^i - y^j|^2 reproducing a zero-diagonal AND matrix.

    y^n = 0 exactly by construction; residual = max_ij | |y^i-y^j|^2 - A_ij |.
    """

    vectors: np.ndarray
    residual: float

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def squared_distances(self) -> np.ndarray:
        G = self.vectors @ self.vectors.T
        sq = np.diag(G)[:, None] + np.diag(G)[None, :] - 2.0 * G
        return sq


def schoenberg_embed(A) -> Embedding:
    """Embed a zero-diagonal AND matrix as squared Euclidean distances.

    Construction: B' = restrict_to_zero_sum(A); P with P^T P = B' from one
    eigendecomposition B' = V diag(w) V^T, as the rows sqrt(w_i) v_i^T in
    ascending order of w_i; the embedding vectors are the columns of
    P/sqrt(2) plus the zero vector, in dimension n-1. An eigenvalue of B'
    below check_and's cut-off -EIG_TOL*|A|_max means A is not AND, and
    raises NotAndError carrying check_and's report; eigenvalues in
    [-EIG_TOL*|A|_max, 0] are clamped to 0, so rank-deficient (merely AND)
    matrices embed. Distinctness transfers: A_ij != 0 for i != j implies
    y^i != y^j. The residual must stay within 10*EIG_TOL*|A|_max, a cut-off
    that scales with A.
    """
    A = np.asarray(A, dtype=float)
    B = restrict_to_zero_sum(A)
    n = A.shape[0]
    if np.any(np.diag(A) != 0.0):
        raise ValueError("matrix must have an exactly zero diagonal")
    scale = float(np.abs(A).max())
    w, V = np.linalg.eigh(B)
    if w.min() < -EIG_TOL * scale:
        raise NotAndError(
            "matrix is not almost negative definite; no squared-distance embedding exists",
            record=check_and(A),
        )
    P = np.sqrt(np.clip(w, 0.0, None))[:, None] * V.T  # P^T P = B
    vectors = np.zeros((n, n - 1))
    vectors[: n - 1] = P.T / math.sqrt(2.0)
    emb = Embedding(vectors=vectors, residual=0.0)
    residual = float(np.abs(emb.squared_distances() - A).max())
    if residual > 10.0 * EIG_TOL * scale:
        raise EmbeddingError(
            f"embedding residual {residual:.3e} exceeds tolerance {10.0 * EIG_TOL * scale:.3e}"
        )
    return Embedding(vectors=vectors, residual=residual)
